"""Ground-truth searches and their budgets."""

import pytest

from hypercore import (
    BudgetExceededError,
    CnfFormula,
    Hypergraph,
    MinrepInstance,
    OracleBudget,
    SetCoverInstance,
    oracle_best_radius_at_size,
    oracle_min_core,
    oracle_min_radius_over_min_cores,
    oracle_minrep,
    oracle_sat,
    oracle_setcover,
    reference_is_core,
)
from hypercore import oracle, propagation


def test_min_core_examples(triangle):
    assert oracle_min_core(triangle) == (1, frozenset({0}))
    assert oracle_min_core(Hypergraph(2, [(0, 1)])) == (1, frozenset({0}))
    assert oracle_min_core(Hypergraph(3, [])) == (3, frozenset({0, 1, 2}))


def test_min_radius_examples(triangle, path, star):
    assert oracle_min_radius_over_min_cores(triangle) == (1, 2, frozenset({0}))
    assert oracle_min_radius_over_min_cores(path) == (1, 1, frozenset({1}))
    assert oracle_min_radius_over_min_cores(star) == (1, 1, frozenset({0}))


def test_best_radius_at_size(path):
    assert oracle_best_radius_at_size(path, 1) == (1, frozenset({1}))
    assert oracle_best_radius_at_size(path, 0) is None


def test_witness_is_lexicographically_first(triangle):
    # all three singletons are cores of the triangle with radius 2
    assert oracle_min_core(triangle)[1] == frozenset({0})


def test_budget_vertices():
    g = Hypergraph(20, [])
    with pytest.raises(BudgetExceededError):
        oracle_min_core(g, budget=OracleBudget(max_vertices=19))
    assert oracle_min_core(g, budget=OracleBudget(max_vertices=20, max_subsets=2**21))


def test_budget_subsets(triangle):
    with pytest.raises(BudgetExceededError):
        oracle_min_core(triangle, budget=OracleBudget(max_vertices=18, max_subsets=2))


def test_setcover_example():
    inst = SetCoverInstance(3, (frozenset({0}), frozenset({0, 1}), frozenset({2})))
    assert oracle_setcover(inst) == (2, (1, 2))
    assert oracle_setcover(SetCoverInstance(0, ())) == (0, ())


def test_sat_examples():
    assert oracle_sat(CnfFormula(3, ((1, 2, 3),)))[0] is True
    unsat = CnfFormula(
        3,
        (
            (1, 2, 3), (1, 2, -3), (1, -2, 3), (1, -2, -3),
            (-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3),
        ),
    )
    assert oracle_sat(unsat) == (False, None)
    ok, witness = oracle_sat(CnfFormula(2, ((1, 2, -2),)))
    assert ok and witness is not None


def test_minrep_example():
    inst = MinrepInstance(1, 1, 1, 1, ((0, 0),))
    assert oracle_minrep(inst) == (2, frozenset({0, 1}))
    empty = MinrepInstance(1, 2, 1, 2, ())
    assert oracle_minrep(empty) == (0, frozenset())


def test_reference_check_examples(triangle):
    assert reference_is_core(triangle, {0})
    assert not reference_is_core(triangle, set())
    assert reference_is_core(Hypergraph(3, []), {0, 1, 2})
    assert not reference_is_core(Hypergraph(3, []), {0, 1})
    with pytest.raises(ValueError):
        reference_is_core(triangle, {5})


def test_min_radius_invariant_raises_runtime_error(monkeypatch, path):
    monkeypatch.setattr(oracle, "oracle_best_radius_at_size", lambda *args: None)
    with pytest.raises(RuntimeError, match="always has a core"):
        oracle_min_radius_over_min_cores(path)


def test_min_core_invariant_raises_runtime_error(monkeypatch, path):
    monkeypatch.setattr(propagation, "is_core", lambda *args: False)
    with pytest.raises(RuntimeError, match="always a core"):
        oracle_min_core(path)
