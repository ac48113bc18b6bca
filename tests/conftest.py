from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cliquedyn.generators import hex_torus, icosahedron, octahedron
from cliquedyn.hexgrid import gen_hex_patch

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def octa():
    return octahedron()


@pytest.fixture(scope="session")
def icosa():
    return icosahedron()


@pytest.fixture(scope="session")
def t44():
    return hex_torus(4, 4)


@pytest.fixture(scope="session")
def patch6():
    return gen_hex_patch(6)


@pytest.fixture(scope="session")
def patch8():
    return gen_hex_patch(8)


@pytest.fixture(scope="session")
def genus2():
    from helpers import genus2_surface

    return genus2_surface()


@pytest.fixture
def low_recursion_limit():
    """A recursion limit of 200 during the test, so that a search deeper
    than the limit needs only a small graph."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    yield 200
    sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
