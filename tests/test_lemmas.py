from __future__ import annotations

import hashlib
import random

import pytest

from cliquedyn import lemmas
from cliquedyn.graph import GraphError
from cliquedyn.hexgrid import gen_hex_patch
from cliquedyn.lemmas import (
    SUITES,
    chart_extension_suite,
    cover_suite,
    discharge_suite,
    equivalence_suite,
    inclusion_suite,
    lhg_suite,
    random_disc_walk,
    run_suites,
    straight_paths_suite,
)
from cliquedyn.surface import disc_discharge_check


def test_straight_paths_suite():
    res = straight_paths_suite(4, 5)
    assert res.ok and res.detail["counts"] == {4: 9, 5: 9}


def test_inclusion_suite_single_side():
    res = inclusion_suite(4, 4)
    assert res.ok
    assert res.detail["cases"]["m4k2"] == {"translates": 6, "inverted": 1}


def test_lhg_suite():
    res = lhg_suite()
    assert res.ok and res.detail["sizes"] == [8, 7, 7, 7, 4, 4, 4]


def test_chart_extension_suite_small():
    res = chart_extension_suite(radius=8, seed=3)
    assert res.ok, res.detail
    assert res.detail["counts"] == {3: [7], 4: [6], 5: [6]}


def test_equivalence_suite_small():
    res = equivalence_suite(radius=9, n_max=1)
    assert res.ok, res.detail


def test_cover_suite():
    res = cover_suite(radius=3)
    assert res.ok


def test_discharge_suite_seeded():
    res = discharge_suite(radius=7, count=20, seed=11)
    assert res.ok and res.detail["seed"] == 11


@pytest.mark.parametrize(
    "seed, digest", [(0, "e977fb415d2f07dc"), (1, "d9e264c33d76a5e3"), (2, "72549239e37f9a32")]
)
def test_random_disc_walks_are_pinned(seed, digest):
    patch = gen_hex_patch(8)
    rng = random.Random(seed)
    walks = [random_disc_walk(patch, rng) for _ in range(20)]
    assert all(disc_discharge_check(patch.graph, w) == 0 for w in walks)
    assert hashlib.sha256(repr(walks).encode()).hexdigest()[:16] == digest


def test_run_suites_rejects_unknown():
    with pytest.raises(GraphError, match="unknown suite 'bogus'"):
        run_suites(["bogus"])


def test_run_suites_rejects_an_option_no_chosen_suite_takes(monkeypatch):
    calls = []

    def walks(m_lo=1, m_hi=2):
        calls.append(("walks", m_lo, m_hi))

    def sample(radius=3, count=4):
        calls.append(("sample", radius, count))

    monkeypatch.setattr(lemmas, "SUITES", {"walks": walks, "sample": sample})
    with pytest.raises(GraphError, match="^--count is not a parameter of walks$"):
        run_suites(["walks"], count=0)
    with pytest.raises(GraphError, match="^--m is not a parameter of sample$"):
        run_suites(["sample"], m=5)
    assert calls == []
    # each suite gets the options it takes; "all" accepts every option
    run_suites(["walks", "sample"], count=0, m=5, radius=None)
    run_suites(["all"], radius=9)
    assert calls == [("walks", 5, 5), ("sample", 3, 0), ("walks", 1, 2), ("sample", 9, 4)]


def test_suite_registry_is_complete():
    assert set(SUITES) == {
        "straight-paths",
        "inclusion",
        "lhg",
        "chart-extension",
        "equivalence",
        "cover",
        "discharge",
    }
