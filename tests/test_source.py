"""Checks on the package source itself: every module uses what it imports,
every top-level definition has a reader outside the tests, importing a
module loads only the modules it reads, only ``graph.py`` touches a graph's
memo, every memoised function takes positional parameters only, and no
function takes a search budget."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cliquedyn"
MODULES = sorted(PACKAGE.glob("*.py"))
# the code that may read a package definition: the package itself, the
# benchmark and the acceptance tests (the other tests hold oracles and
# checks, which are no reason for a definition to live in the package)
READERS = [
    *MODULES,
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
# the budgets that are module constants, read where they are spent
BUDGET_PARAMETERS = {"budget", "node_budget", "max_facets"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_unused_imports_are_found():
    source = "import os\nfrom .hexgrid import add, flipped_delta_coords\nadd(os.sep)\n"
    assert unused_imports(source) == ["flipped_delta_coords"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(modules: list[str], readers: list[str], readme: str) -> list[str]:
    """Top-level functions and classes of the ``modules`` sources that no
    reader source reads as a name, an attribute or a from-import, and that
    no backticked span of ``readme`` names."""
    read = {w for span in readme.split("`")[1::2] for w in re.findall(r"\w+", span)}
    for node in (n for source in readers for n in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return sorted(
        node.name
        for source in modules
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    )


def test_unread_definitions_are_found():
    module = "def a(): pass\ndef b(): pass\nclass C: pass\ndef d(): b()\ndef e(): pass\nx = 1\n"
    readers = [module, "from m import C\nimport m\nm.d()\n"]
    assert unread_definitions([module], readers, "run `e` (not a)") == ["a"]


def test_every_definition_has_a_reader():
    """Code that only the tests read belongs in ``tests/helpers.py``."""
    unread = unread_definitions(
        [p.read_text() for p in MODULES],
        [p.read_text() for p in READERS],
        (ROOT / "README.md").read_text(),
    )
    assert unread == []


@pytest.mark.parametrize(
    "module, loaded",
    [("graph", ["graph"]), ("io", ["graph", "io"])],
    ids=["graph", "io"],
)
def test_a_module_import_loads_only_what_it_reads(module, loaded):
    """The package root re-exports nothing, so a module's import reaches
    only the modules below it."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import cliquedyn.{module}; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'cliquedyn'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["cliquedyn", *(f"cliquedyn.{m}" for m in loaded)]


def memo_accesses(source: str) -> list[int]:
    """Lines of the attribute accesses ``._memo`` in ``source``."""
    tree = ast.parse(source)
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_memo"]


def test_memo_accesses_are_found():
    assert memo_accesses("x = 1\nif key in g._memo:\n    pass\n") == [2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graph.py"], ids=lambda p: p.name)
def test_only_graph_py_touches_the_memo(path):
    """Derived data is kept through ``graph.memoised`` alone."""
    assert memo_accesses(path.read_text()) == []


def memoised_with_keywords(source: str) -> list[str]:
    """Names of the ``@memoised`` functions taking a keyword-only parameter
    or ``**`` keywords, which the memo key would leave out."""
    return [
        f.name
        for f in ast.walk(ast.parse(source))
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(d, ast.Name) and d.id == "memoised" for d in f.decorator_list)
        and (f.args.kwonlyargs or f.args.kwarg)
    ]


def test_memoised_keywords_are_found():
    source = (
        "@memoised\ndef a(g, *, budget=1): pass\n"
        "@memoised\ndef b(g, **bounds): pass\n"
        "@memoised\ndef c(g, m, /): pass\n"
        "def d(g, *, budget=1): pass\n"
    )
    assert memoised_with_keywords(source) == ["a", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_memoised_functions_take_positional_parameters_only(path):
    assert memoised_with_keywords(path.read_text()) == []


def parameter_names(source: str) -> set[str]:
    """Every parameter name of every function and lambda in ``source``."""
    return {n.arg for n in ast.walk(ast.parse(source)) if isinstance(n, ast.arg)}


def test_parameter_names_are_found():
    source = "def f(a, /, b, *c, d, **e): pass\ng = lambda h: h\n"
    assert parameter_names(source) == set("abcdeh")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_budget(path):
    """The vertex budget of ``iterate_k`` is the one budget set per run."""
    assert parameter_names(path.read_text()) & BUDGET_PARAMETERS == set()
