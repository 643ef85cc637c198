"""Ground-truth searches and their budgets."""

import collections
import itertools
import math
import random
import time

import pytest

from hypercore import (
    BudgetExceededError,
    CnfFormula,
    Hypergraph,
    MinrepInstance,
    OracleBudget,
    SetCoverInstance,
    generate_random,
    oracle_best_radius_at_size,
    oracle_min_core,
    oracle_min_radius_over_min_cores,
    oracle_minrep,
    oracle_sat,
    oracle_setcover,
    propagate,
    reference_is_core,
)
from hypercore import oracle, propagation
from hypercore.hypergraph import default_thresholds, resolve_thresholds
from conftest import messy_instance, seeded_family
import reference_oracle


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
    with pytest.raises(BudgetExceededError) as info:
        oracle_min_core(g, budget=OracleBudget(max_vertices=19))
    assert (info.value.spent, info.value.block) == (None, None)
    assert oracle_min_core(g, budget=OracleBudget(max_vertices=20, max_subsets=2**21))


def test_budget_subsets(triangle):
    tight = OracleBudget(max_vertices=18, max_subsets=2)
    with pytest.raises(BudgetExceededError) as info:
        oracle_min_core(triangle, budget=tight)
    # block 0 (the empty set) was spent, block 1 (three singletons) refused
    assert str(info.value) == "enumerating 4 subsets exceeds the budget of 2"
    assert (info.value.spent, info.value.block) == (1, 3)
    with pytest.raises(BudgetExceededError) as info:
        oracle_best_radius_at_size(triangle, 2, budget=tight)
    assert str(info.value) == "enumerating 3 subsets exceeds the budget of 2"
    assert (info.value.spent, info.value.block) == (0, 3)


@pytest.mark.parametrize(
    "search, source",
    [
        (oracle_setcover, SetCoverInstance(2, (frozenset({0}), frozenset({1})))),
        (oracle_minrep, MinrepInstance(1, 1, 1, 1, ((0, 0),))),
        (oracle_sat, CnfFormula(3, ((1, 2, 3),))),
    ],
)
def test_budget_of_compiled_sources_carries_no_block(search, source):
    with pytest.raises(BudgetExceededError, match="exceed the subset budget") as info:
        search(source, budget=OracleBudget(max_subsets=3))
    assert (info.value.spent, info.value.block) == (None, None)


@pytest.mark.parametrize(
    "search, source, k",
    [
        (oracle_setcover, SetCoverInstance(1, (frozenset({0}),) * 3), 3),
        (oracle_minrep, MinrepInstance(1, 1, 1, 2, ((0, 0),)), 3),
        (oracle_sat, CnfFormula(3, ((1, 2, 3),)), 3),
    ],
)
def test_budget_of_compiled_sources_at_the_edge(search, source, k):
    search(source, budget=OracleBudget(max_subsets=2**k))
    with pytest.raises(BudgetExceededError, match=f"^2\\^{k} "):
        search(source, budget=OracleBudget(max_subsets=2**k - 1))


def test_budget_refuses_a_huge_source_without_building_it():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="^2\\^1000000000 assignments"):
        oracle_sat(CnfFormula(10**9, ()))
    assert time.perf_counter() - start < 0.1


def test_negative_budget_is_an_input_error():
    for caps in ({"max_vertices": -1}, {"max_subsets": -1}, {"max_subsets": 1e6}):
        with pytest.raises(ValueError, match="must be non-negative integers"):
            OracleBudget(**caps)
    assert OracleBudget(0, 0) == OracleBudget(max_vertices=0, max_subsets=0)


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
    monkeypatch.setattr(oracle, "_cores", lambda *args: iter(()))
    with pytest.raises(RuntimeError, match="always a core"):
        oracle_min_core(path)


def test_min_core_witness_disagreement_raises_runtime_error(monkeypatch, path):
    monkeypatch.setattr(oracle, "is_core", lambda *args: False)
    with pytest.raises(RuntimeError, match="^closure and rounds disagree$"):
        oracle_min_core(path)


def test_radius_pass_disagreement_raises_runtime_error(monkeypatch, path):
    monkeypatch.setattr(oracle, "_core_radius", lambda *args: None)
    with pytest.raises(RuntimeError, match="^closure and rounds disagree$"):
        oracle_best_radius_at_size(path, 1)


def _best_radius_reference(graph, size, thresholds=None):
    """The radius pass before it read the engine: one full ``propagate``
    trace per subset of ``size`` vertices, in lexicographic order."""
    best = None
    for combo in itertools.combinations(range(graph.n), size):
        trace = propagate(graph, combo, thresholds)
        if trace.verdict and (best is None or trace.radius < best[0]):
            best = (trace.radius, frozenset(combo))
    return best


def _threshold_cases(count_messy, count_family, seed):
    """Each instance under default thresholds and under a random valid
    custom map, given alternately as a list and as a tuple."""
    rng = random.Random(seed)
    graphs = [messy_instance(rng) for _ in range(count_messy)]
    graphs += seeded_family(count_family, seed, n_hi=10, m_cap=14, size_lo=1)
    cases = []
    for i, g in enumerate(graphs):
        custom = [rng.randint(0, hi) for hi in default_thresholds(g)]
        cases += [(g, None), (g, tuple(custom) if i % 2 else custom)]
    return cases


def test_radius_pass_matches_propagate_reference():
    cases = _threshold_cases(250, 150, 8300)
    ties = custom = 0
    for g, t in cases:
        first = None
        for k in range(g.n + 1):
            ref = _best_radius_reference(g, k, t)
            assert oracle_best_radius_at_size(g, k, t) == ref, (g.edges, t, k)
            if first is None and ref is not None:
                first = (k, *ref)
        assert oracle_min_radius_over_min_cores(g, t) == first, (g.edges, t)
        size, best, _ = first
        ties += sum(
            trace.verdict and trace.radius == best
            for trace in (
                propagate(g, c, t) for c in itertools.combinations(range(g.n), size)
            )
        ) > 1
        custom += t is not None and tuple(t) != default_thresholds(g)
    # several minimum cores share the best radius, so the witness order is pinned
    assert ties >= 100, ties
    assert custom >= 200


def test_min_core_matches_per_subset_reference():
    cases = _threshold_cases(250, 150, 8500)
    for g, t in cases:
        assert oracle_min_core(g, t) == reference_oracle.oracle_min_core(g, t), (g.edges, t)
        # the budget refuses the same block, having spent the same subsets
        tight = OracleBudget(max_subsets=2 ** g.n // 3)
        outcomes = []
        for search in (oracle_min_core, reference_oracle.oracle_min_core):
            try:
                outcomes.append(search(g, t, tight))
            except BudgetExceededError as refusal:
                outcomes.append((str(refusal), refusal.spent, refusal.block))
        assert outcomes[0] == outcomes[1], (g.edges, t)
    assert sum(t is not None for _, t in cases) == 400
    assert sum(isinstance(t, tuple) for _, t in cases) == 200


def _outcome(search, *args):
    """A search's result, or the message, ``spent`` and ``block`` of its
    refusal."""
    try:
        return search(*args)
    except BudgetExceededError as refusal:
        return str(refusal), refusal.spent, refusal.block


def test_skipping_searches_match_exhaustive_reference():
    """Both public searches, and the radius pass at every size, return what
    the exhaustive searches of ``reference_oracle.py`` return, under default
    and custom thresholds, also on graphs with vertices in no edge,
    zero-threshold edges and size-1 edges; a budget that refuses a block
    refuses the same one.  At the minimum size the skipping core walk
    yields every core the exhaustive one does."""
    cases = _threshold_cases(200, 100, 8700)
    cases += [
        (Hypergraph(6, [(0, 1), (1, 2)]), None),  # 3, 4 and 5 are in no edge
        (Hypergraph(6, [(0, 1), (1, 2)]), [0, 1]),
        (Hypergraph(5, [(0,), (1, 2, 3), (3,)]), (0, 0, 0)),
        (Hypergraph(8, []), None),
    ]
    free = zero = single = refused = 0
    for g, t in cases:
        tight = OracleBudget(max_subsets=2**g.n // 3)
        for budget in (oracle.DEFAULT_RADIUS_BUDGET, tight):
            for search, reference in (
                (oracle_min_core, reference_oracle.oracle_min_core),
                (oracle_min_radius_over_min_cores, reference_oracle.oracle_min_radius_over_min_cores),
            ):
                got = _outcome(search, g, t, budget)
                assert got == _outcome(reference, g, t, budget), (g.edges, t, budget)
                refused += isinstance(got[0], str)
            for k in range(g.n + 2):
                got = _outcome(oracle_best_radius_at_size, g, k, t, budget)
                ref = _outcome(reference_oracle.oracle_best_radius_at_size, g, k, t, budget)
                assert got == ref, (g.edges, t, k, budget)
        resolved = resolve_thresholds(g, t)
        size, _ = oracle_min_core(g, t, oracle.DEFAULT_RADIUS_BUDGET)
        cores = list(reference_oracle._cores(g, size, resolved))
        assert list(oracle._cores(g, size, resolved, True)) == cores
        free += any(not ix for ix in g._incidence)
        zero += any(tj == 0 < len(e) - 1 for tj, e in zip(resolved, g.edges))
        single += any(len(e) == 1 for e in g.edges)
    assert free >= 300 and zero >= 100 and single >= 300, (free, zero, single)
    assert refused >= 500, refused


def test_cores_match_reference_check_on_criterion_1_instances():
    """The instances of acceptance criterion 1: for every size ``k``, the
    subsets ``_cores`` yields are exactly the ``k``-subsets that the
    one-edge-at-a-time rescan accepts, in lexicographic order."""
    yielded = 0
    for s in range(200):
        rng = random.Random(8100 + s)
        n = rng.randint(1, 8)
        m = rng.randint(0, 10)
        g = generate_random(n, m, 1, min(4, n), seed=8500 + s)
        t = default_thresholds(g)
        for k in range(n + 1):
            cores = list(oracle._cores(g, k, t))
            combos = itertools.combinations(range(n), k)
            assert cores == [c for c in combos if reference_is_core(g, c)], (s, k)
            yielded += len(cores)
    assert yielded > 1000, yielded


def test_custom_thresholds_are_checked_once_per_search(monkeypatch):
    """Only the search itself and the witness check resolve a non-default
    threshold tuple, however many subsets the search decides."""
    calls = []

    def counted(graph, thresholds):
        if thresholds is not None and thresholds is not default_thresholds(graph):
            calls.append(thresholds)
        return resolve(graph, thresholds)

    resolve = oracle.resolve_thresholds
    monkeypatch.setattr(oracle, "resolve_thresholds", counted)
    monkeypatch.setattr(propagation, "resolve_thresholds", counted)
    g = generate_random(16, 7, 2, 4, seed=1415)
    custom = list(default_thresholds(g))
    custom[0] -= 1
    counts = set()
    for t in (custom, tuple(custom)):
        calls.clear()
        size, _ = oracle_min_core(g, t)
        counts.add(len(calls))
        calls.clear()
        oracle_best_radius_at_size(g, size, t, OracleBudget())
        assert len(calls) == 1
    # the search decides thousands of subsets before its witness
    assert sum(math.comb(g.n, k) for k in range(size)) > 10_000
    assert counts == {2}


def test_oracle_work_counts(monkeypatch):
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    per_subset = propagation.propagate
    monkeypatch.setattr(oracle, "is_core", counted("is_core", oracle.is_core))
    monkeypatch.setattr(oracle, "_core_radius", counted("_core_radius", oracle._core_radius))
    trace = counted("propagate", propagation.propagate)
    monkeypatch.setattr(propagation, "propagate", trace)
    # catches a module-level import of propagate coming back into the oracle
    monkeypatch.setattr(oracle, "propagate", trace, raising=False)
    for g, t in _threshold_cases(60, 60, 8400):
        calls.clear()
        size, _ = oracle_min_core(g, t)
        assert calls == {"is_core": 1}
        cores = sum(
            per_subset(g, c, t).verdict for c in itertools.combinations(range(g.n), size)
        )
        calls.clear()
        oracle_best_radius_at_size(g, size, t)
        assert calls == {"_core_radius": cores}
        calls.clear()
        oracle_min_radius_over_min_cores(g, t)
        assert calls == {"is_core": 1, "_core_radius": cores}
