"""Incremental edge orderings: validation, radius, core conversions."""

import pytest

from hypercore import (
    Filtration,
    Hypergraph,
    NotACoreError,
    core_to_filtration,
    filtration_radius,
    filtration_to_core,
    is_core,
    oracle_min_core,
    propagate,
    validate_filtration,
)
from hypercore import filtration
from hypercore.filtration import (
    InvalidFiltrationError,
    read_filtration,
    write_filtration,
)
from conftest import all_subsets, seeded_family


def test_validate_examples(path):
    good = Filtration(frozenset({0}), (0, 1), (1, 2))
    assert validate_filtration(path, good) == (True, None)
    bad = Filtration(frozenset({0}), (1, 0), (None, None))
    ok, why = validate_filtration(path, bad)
    assert not ok and why.startswith("condition 3")
    swallowed = Filtration(frozenset({0, 1}), (0, 1), (None, 2))
    ok, why = validate_filtration(path, swallowed)
    assert not ok and why.startswith("condition 2")


def test_validate_malformed_raises(path):
    with pytest.raises(ValueError):
        validate_filtration(path, Filtration(frozenset({0}), (0, 0), (1, 2)))
    with pytest.raises(ValueError):
        validate_filtration(path, Filtration(frozenset({9}), (0, 1), (1, 2)))
    with pytest.raises(ValueError, match="^added_vertex length differs from edge count$"):
        validate_filtration(path, Filtration(frozenset({0}), (0, 1), (1,)))


def test_validate_declared_vertex_mismatch(path):
    wrong = Filtration(frozenset({0}), (0, 1), (1, None))
    ok, why = validate_filtration(path, wrong)
    assert not ok and why.startswith("condition 4")


def test_validate_chain_must_reach_every_vertex():
    g = Hypergraph(3, [(0, 1)])
    ok, why = validate_filtration(
        g, Filtration(frozenset({0}), (0,), (1,))
    )
    assert not ok and why.startswith("condition 5")


def test_filtration_radius_examples(path):
    assert filtration_radius(path, Filtration(frozenset({0}), (0, 1), (1, 2))) == 2
    star2 = Hypergraph(3, [(0, 1), (0, 2)])
    assert filtration_radius(star2, Filtration(frozenset({0}), (0, 1), (1, 2))) == 1
    assert filtration_radius(star2, Filtration(frozenset({0}), (1, 0), (2, 1))) == 1
    single = Hypergraph(2, [(0, 1)])
    assert filtration_radius(single, Filtration(frozenset({0}), (0,), (1,))) == 1
    with pytest.raises(InvalidFiltrationError):
        filtration_radius(path, Filtration(frozenset({0}), (1, 0), (None, None)))


def test_core_to_filtration_examples(path, triangle):
    f = core_to_filtration(path, {1})
    assert f.foundation == frozenset({1})
    assert f.edge_order == (0, 1)
    assert validate_filtration(path, f) == (True, None)
    assert filtration_radius(path, f) == 1

    f = core_to_filtration(triangle, {0})
    assert f.edge_order == (0, 2, 1)
    assert f.added_vertex == (1, 2, None)
    assert filtration_radius(triangle, f) == 2

    empty = Hypergraph(0, [])
    f = core_to_filtration(empty, set())
    assert f.edge_order == ()
    assert filtration_radius(empty, f) == 0


def test_core_to_filtration_rejects_non_cores_and_swallowed_edges(triangle):
    with pytest.raises(NotACoreError):
        core_to_filtration(triangle, set())
    with pytest.raises(InvalidFiltrationError):
        core_to_filtration(triangle, {0, 1, 2})


def test_filtration_to_core_round_trip(path, triangle):
    f = core_to_filtration(path, {1})
    assert filtration_to_core(path, f) == frozenset({1})
    f = core_to_filtration(triangle, {0})
    assert filtration_to_core(triangle, f) == frozenset({0})


def test_round_trip_over_all_cores():
    for g in seeded_family(40, seed=41, n_hi=7, size_lo=1):
        for core in all_subsets(g.n):
            if not is_core(g, core):
                continue
            if any(set(e) <= core for e in g.edges):
                continue
            f = core_to_filtration(g, core)
            assert validate_filtration(g, f) == (True, None)
            back = filtration_to_core(g, f)
            assert back == core
            assert is_core(g, back)
            assert len(f.foundation) == len(core)


def test_radius_preserved_for_minimum_cores():
    for g in seeded_family(60, seed=42, n_hi=9, size_lo=1):
        size, witness = oracle_min_core(g)
        if any(set(e) <= witness for e in g.edges):
            continue
        f = core_to_filtration(g, witness)
        trace = propagate(g, witness)
        assert trace.verdict and filtration_radius(g, f) == trace.radius


def test_filtration_file_round_trip(triangle):
    f = core_to_filtration(triangle, {0})
    text = write_filtration(f)
    assert text.splitlines()[0] == "f 1 1"
    assert read_filtration(text) == f
    f2 = read_filtration("f 1 2\no 1 1\no 2 3\n")
    assert f2.foundation == frozenset({1})
    assert f2.edge_order == (0, 1)
    assert f2.added_vertex == (0, 2)


def test_core_to_filtration_multi_vertex_layer_raises_runtime_error(monkeypatch):
    real = filtration.propagate
    monkeypatch.setattr(
        filtration, "propagate", lambda graph, core: real(graph, core, [0] * graph.m)
    )
    with pytest.raises(RuntimeError, match="at most one vertex"):
        core_to_filtration(Hypergraph(3, [(0, 1, 2)]), {0})
