"""Degree-one peeling and the parameterized minimum-core search."""

import concurrent.futures
import itertools
import math
import os
import pickle
import random

import pytest

from hypercore import (
    Hypergraph,
    NoCoreOfSizeNM,
    NotFoundWithin,
    generate_random,
    is_core,
    mincore_fpt,
    oracle_best_radius_at_size,
    oracle_min_core,
    oracle_min_radius_over_min_cores,
    peel_nm,
    propagate,
)
from hypercore import mincore
from hypercore.hypergraph import default_thresholds
from hypercore.mincore import PEEL_FAILURE_MESSAGE, MinCoreResult, _residual
import reference_peel
from conftest import messy_instance, seeded_family


def test_peel_path(path):
    res = peel_nm(path)
    assert res.core == frozenset({1})
    assert res.radius == 1
    assert res.layers == [(0, 1)]
    assert res.assimilator == {0: 0, 1: 2}


def test_peel_triangle_fails(triangle):
    with pytest.raises(NoCoreOfSizeNM) as err:
        peel_nm(triangle)
    assert str(err.value) == PEEL_FAILURE_MESSAGE


def test_peel_single_edge_removes_smallest():
    res = peel_nm(Hypergraph(2, [(0, 1)]))
    assert res.core == frozenset({1})
    assert res.radius == 1


def test_peel_keeps_isolated_vertices():
    res = peel_nm(Hypergraph(4, [(0, 1)]))
    assert res.core == frozenset({1, 2, 3})


def test_peel_handles_singleton_edges():
    g = Hypergraph(2, [(0,), (0, 1)])
    res = peel_nm(g)
    assert res.core == frozenset()
    assert res.radius == 2
    assert is_core(g, res.core)


def test_peel_rejects_more_edges_than_vertices():
    with pytest.raises(NoCoreOfSizeNM):
        peel_nm(Hypergraph(2, [(0, 1)] * 3))


def test_peel_empty_edge_set():
    res = peel_nm(Hypergraph(3, []))
    assert res.core == frozenset({0, 1, 2})
    assert res.radius == 0


def test_peel_layers_are_a_valid_minimal_layering():
    """Reversed peel rounds satisfy the layer rule and match the radius.

    The synchronous trace may cover an individual edge earlier than the
    peeling order does, but both layerings have the same depth.
    """
    for g in seeded_family(120, seed=31, n_hi=10):
        try:
            res = peel_nm(g)
        except NoCoreOfSizeNM:
            continue
        assert is_core(g, res.core)
        assert len(res.core) == g.n - g.m
        trace = propagate(g, res.core)
        assert trace.verdict
        assert trace.radius == res.radius == len(res.layers)
        t = default_thresholds(g)
        reached = set(res.core)
        for layer in res.layers:
            for e_idx in layer:
                assert len(set(g.edges[e_idx]) & reached) >= t[e_idx]
            reached |= {v for e in layer for v in g.edges[e]}
        assert reached == set(range(g.n))
        victims = set(res.assimilator.values())
        assert victims == set(range(g.n)) - res.core
        assert len(victims) == g.m
        assert all(res.assimilator[e] in g.edges[e] for e in res.assimilator)


def test_peel_succeeds_iff_min_core_size_is_nm():
    for g in seeded_family(80, seed=32, n_hi=9):
        try:
            peel_nm(g)
            ok = True
        except NoCoreOfSizeNM:
            ok = False
        assert ok == (oracle_min_core(g)[0] == g.n - g.m)


def test_fpt_triangle(triangle):
    res = mincore_fpt(triangle, 1)
    assert res.parameter_a == 1
    assert len(res.core) == 1
    assert res.radius == 2
    assert len(res.deleted_edges) == 1
    # lexicographically smallest deletion wins the radius tie
    assert res.deleted_edges == (0,)
    assert res.core == frozenset({2})


def test_fpt_path(path):
    res = mincore_fpt(path, 0)
    assert res.parameter_a == 0
    assert res.core == frozenset({1})
    assert res.radius == 1
    assert res.deleted_edges == ()


def test_fpt_no_edges():
    g = Hypergraph(3, [])
    res = mincore_fpt(g, 0)
    assert res.core == frozenset({0, 1, 2})
    assert res.radius == 0


def test_fpt_not_found(triangle):
    with pytest.raises(NotFoundWithin):
        mincore_fpt(triangle, 0)
    with pytest.raises(ValueError):
        mincore_fpt(triangle, -1)


def test_fpt_matches_oracle_minimum():
    for g in seeded_family(50, seed=33, n_hi=9):
        res = mincore_fpt(g, g.n)
        size, _ = oracle_min_core(g)
        assert len(res.core) == size
        assert len(res.core) == g.n - g.m + res.parameter_a
        assert is_core(g, res.core)


def test_fpt_radius_sandwich():
    """Reported radius is within one of both the deletion run and the optimum."""
    for g in seeded_family(40, seed=34, n_hi=8):
        res = mincore_fpt(g, g.n)
        _, best_radius, _ = oracle_min_radius_over_min_cores(g)
        assert best_radius <= res.radius <= best_radius + 1
        if res.parameter_a == 0:
            assert res.radius == best_radius
        drop = set(res.deleted_edges)
        kept = [e for i, e in enumerate(g.edges) if i not in drop]
        replay = peel_nm(Hypergraph(g.n, kept))
        assert replay.radius <= res.radius <= replay.radius + 1


def test_fpt_radius_can_be_one_round_above_the_best():
    """At ``a > 0`` the search is within one round of the best radius, not
    always at it.  The instance of ``gen --n 12 --m 11 --emin 2 --emax 4
    --seed 324`` has the size-3 core {1, 2, 5} (1-based) of radius 3; the
    search deletes edges 1 and 6 and returns the peel core {5, 10, 12}, of
    radius 4."""
    g = generate_random(12, 11, 2, 4, 324)
    res = mincore_fpt(g, 12)
    assert (res.parameter_a, res.radius, res.deleted_edges) == (2, 4, (0, 5))
    assert res.core == frozenset({4, 9, 11})
    assert oracle_min_radius_over_min_cores(g) == (3, 3, frozenset({0, 1, 4}))


def test_fpt_deterministic_and_parallel_identical():
    # The last instance's 286 deletions at a = 3 split into two parts whose
    # bests tie at radius 3; part 1's (1, 3, 9) is the smaller tuple.
    for g in [*seeded_family(6, seed=35, n_hi=7), generate_random(14, 14, 2, 3, 59)]:
        a = mincore_fpt(g, g.n)
        b = mincore_fpt(g, g.n)
        c = mincore_fpt(g, g.n, jobs=2)
        assert a == b == c


@pytest.fixture
def pools(monkeypatch):
    """Replace the process pool by one that runs every task in this process,
    so no worker process is ever started.  Each pool records
    ``(max_workers, tasks)``, with one task list per ``map`` call."""
    recorded = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            self.tasks = []
            recorded.append((max_workers, self.tasks))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.tasks.append(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mincore, "_POOL_KERNEL", None)
    return recorded


def _assert_one_task_per_worker(pools):
    """Each ``map`` call is one level, consecutive from the first, and holds
    exactly one task ``(a, part, workers)`` per part."""
    for workers, maps in pools:
        assert maps
        first = maps[0][0][0]
        for a, tasks in enumerate(maps, start=first):
            assert tasks == [(a, w, workers) for w in range(workers)]


def test_fpt_pool_parts_strided_across_prefixes(pools, monkeypatch):
    """A strided part takes every ``w``-th deletion, so consecutive
    deletions of a part share shorter prefixes than in the serial order;
    each part strips from the kernel's base state, so the pool returns what
    the serial search does."""
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 3)
    checked = 0
    for s in range(200):
        g = generate_random(24, 22, 2, 3, s)
        residual = _residual(g)
        start = max(0, len(residual) - len({v for ei in residual for v in g.edges[ei]}))
        serial = _outcome(mincore_fpt, g, 3)
        top = serial.parameter_a if isinstance(serial, MinCoreResult) else 3
        if all(math.comb(len(residual), a) <= 64 for a in range(start, top + 1)):
            continue
        assert _outcome(mincore_fpt, g, 3, jobs=2) == serial
        assert _outcome(mincore_fpt, g, 3, jobs=3) == serial
        checked += 1
        if checked == 30:
            break
    assert checked == 30
    assert [workers for workers, _ in pools] == [2, 3] * 30
    _assert_one_task_per_worker(pools)


def test_fpt_real_pool_matches_serial(monkeypatch):
    """Two worker processes, whatever the host's CPU count.  In the first
    instance part 1's best has the smaller radius; in the second the parts
    tie on radius and part 0 holds the smaller deleted tuple."""
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 2)
    for seed, a, relation in ((27, 1, "beats"), (0, 2, "ties")):
        g = generate_random(10, 10, 2, 3, seed)
        kernel = mincore._Kernel(g, _residual(g))
        part0, part1 = kernel.best(a, 0, 2), kernel.best(a, 1, 2)
        if relation == "beats":
            assert part1[0] < part0[0]
        else:
            assert part0[0] == part1[0] and part0[1] < part1[1]
        serial = mincore_fpt(g, 4)
        assert serial.parameter_a == a
        assert min(part0, part1) == (serial.radius, serial.deleted_edges, serial.core)
        assert mincore_fpt(g, 4, jobs=2) == serial
        # A worker started by spawn or forkserver receives a pickled kernel.
        assert pickle.loads(pickle.dumps(kernel)).best(a, 1, 2) == part1


def test_fpt_rejects_jobs_below_one(path):
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            mincore_fpt(path, 0, jobs=jobs)


def test_fpt_jobs_capped_at_cpu_count(pools, monkeypatch):
    g = generate_random(14, 14, 2, 3, 59)
    expected = mincore_fpt(g, g.n)
    assert pools == []
    cpus = mincore._cpu_count()
    assert 1 <= cpus <= (os.cpu_count() or 1)
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 3)
    assert mincore_fpt(g, g.n, jobs=10_000) == expected
    assert mincore_fpt(g, g.n, jobs=2) == expected
    assert [workers for workers, _ in pools] == [3, 2]
    _assert_one_task_per_worker(pools)
    # On one CPU, jobs > 1 starts no pool: one worker is this process.
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 1)
    assert mincore_fpt(g, g.n, jobs=2) == expected
    assert mincore_fpt(g, g.n, jobs=1) == expected
    assert len(pools) == 2


def _reference_fpt(g, a_max):
    """The search without the kernel: every ``a``-subset of all edges, each
    peeled on a rebuilt subgraph."""
    for a in range(min(a_max, g.m) + 1):
        best = None
        for deleted in itertools.combinations(range(g.m), a):
            kept = [e for i, e in enumerate(g.edges) if i not in deleted]
            try:
                core = peel_nm(Hypergraph(g.n, kept)).core
            except NoCoreOfSizeNM:
                continue
            trace = propagate(g, core)
            assert trace.verdict
            if best is None or (trace.radius, deleted) < best[:2]:
                best = (trace.radius, deleted, core)
        if best is not None:
            return MinCoreResult(
                core=best[2], radius=best[0], deleted_edges=best[1], parameter_a=a
            )
    raise NotFoundWithin(a_max)


def _outcome(search, g, a_max, **kwargs):
    try:
        return search(g, a_max, **kwargs)
    except NotFoundWithin as err:
        return ("not found", err.a_max)


def test_fpt_matches_unkernelised_reference():
    for s in range(320):
        rng = random.Random(9_000_011 + s)
        g = messy_instance(rng)
        a_max = rng.randint(0, 4)
        expected = _outcome(_reference_fpt, g, a_max)
        assert _outcome(mincore_fpt, g, a_max) == expected
        if s % 16 == 0 and g.m >= 6:
            assert _outcome(mincore_fpt, g, a_max, jobs=2) == expected


def _peels(g, deleted):
    try:
        peel_nm(g, deleted)
    except NoCoreOfSizeNM:
        return False
    return True


def _scan_reference(g, a_max):
    """The search with deletions decided on the whole instance: one
    ``peel_nm`` of ``g`` and one ``propagate`` per deletion of residual
    edges."""
    residual = _residual(g)
    spanned = {v for ei in residual for v in g.edges[ei]}
    for a in range(max(0, len(residual) - len(spanned)), a_max + 1):
        best = None
        for deleted in itertools.combinations(residual, a):
            try:
                core = peel_nm(g, deleted).core
            except NoCoreOfSizeNM:
                continue
            trace = propagate(g, core)
            assert trace.verdict
            if best is None or trace.radius < best[0]:
                best = (trace.radius, deleted, core)
        if best is not None:
            return MinCoreResult(
                core=best[2], radius=best[0], deleted_edges=best[1], parameter_a=a
            )
    raise NotFoundWithin(a_max)


def _kernel_family():
    graphs = [messy_instance(random.Random(9_200_017 + s)) for s in range(250)]
    graphs += seeded_family(150, seed=38, n_hi=8, m_cap=14, size_lo=1)
    return graphs


def test_kernel_verdicts_and_search_match_whole_instance_scan():
    """Stripping ``R - D`` decides every deletion as peeling ``G - D`` does
    (lemma 3), and the search returns what the whole-instance scan does."""
    graphs = _kernel_family()
    assert sum(len(set(g.edges)) < g.m for g in graphs) >= 40  # duplicate edges
    assert sum(any(len(e) == 1 for e in g.edges) for g in graphs) >= 40
    assert sum(min(g.degrees(), default=1) == 0 for g in graphs) >= 40  # isolated
    assert sum(g.m > g.n for g in graphs) >= 40
    for g in graphs:
        residual = _residual(g)
        kernel = mincore._Kernel(g, residual)
        top = len(residual) if len(residual) <= 10 else 3
        for a in range(top + 1):
            combos = list(itertools.combinations(range(len(residual)), a))
            peeling = [c for c in combos if _peels(g, [residual[i] for i in c])]
            assert list(kernel.successes(a)) == peeling
        assert _outcome(mincore_fpt, g, g.n) == _outcome(_scan_reference, g, g.n)


def _kernel_strips(g, residual, levels):
    """Strips the kernel makes while trying ``levels``: per level, one for
    each deletion prefix whose last edge the shorter prefix leaves alive,
    as the reference strip decides.  The base state is never stripped."""
    local = mincore._Kernel(g, residual).local
    template = local.degrees()
    count = 0
    for a in levels:
        for d in range(1, a + 1):
            # the d-edge prefixes of a-edge deletions out of |R|
            for prefix in itertools.combinations(range(len(residual) - (a - d)), d):
                count += reference_peel._strip(local, template, prefix[:-1])[prefix[-1]]
    return count


def test_fpt_peels_the_instance_only_for_successes(monkeypatch):
    """``peel_nm`` runs once per successful deletion at the levels tried,
    and the winner keeps the core it was scored with.  The only strip of
    the instance is the one that finds ``R``; the kernel strips each
    deletion prefix once per level, and only when its last edge is still
    alive."""
    peeled, stripped = [], []

    def counting_peel(graph, deleted=()):
        peeled.append(tuple(deleted))
        return peel_nm(graph, deleted)

    def counting_strip(graph, deg, alive, left, seeds):
        stripped.append(graph is g)
        return strip(graph, deg, alive, left, seeds)

    strip = mincore._strip
    for s in range(120):
        rng = random.Random(9_300_007 + s)
        g = messy_instance(rng)
        a_max = rng.randint(0, 4)
        residual = _residual(g)
        outcome = _outcome(_scan_reference, g, a_max)
        found = isinstance(outcome, MinCoreResult)
        start = max(0, len(residual) - len({v for ei in residual for v in g.edges[ei]}))
        levels = range(start, (outcome.parameter_a if found else a_max) + 1)
        successes = sum(
            _peels(g, deleted) for a in levels for deleted in itertools.combinations(residual, a)
        )
        expected_strips = _kernel_strips(g, residual, levels)
        peeled.clear()
        stripped.clear()
        with monkeypatch.context() as patch:
            patch.setattr(mincore, "peel_nm", counting_peel)
            patch.setattr(mincore, "_strip", counting_strip)
            assert _outcome(mincore_fpt, g, a_max) == outcome
        assert len(peeled) == successes
        assert stripped.count(True) == 1
        assert stripped.count(False) == expected_strips


def test_peel_with_deleted_edges_matches_rebuilt_subgraph(triangle):
    res = peel_nm(triangle, deleted=(1,))
    rebuilt = peel_nm(Hypergraph(3, [(0, 1), (0, 2)]))
    assert res.core == rebuilt.core == frozenset({0})
    # layers and assimilator keep the indices of the full instance
    assert res.layers == [(0, 2)]
    assert res.assimilator == {0: 1, 2: 2}
    with pytest.raises(ValueError):
        peel_nm(triangle, deleted=(3,))
    with pytest.raises(ValueError):
        peel_nm(triangle, deleted=(-1,))


def test_residual(path, star, triangle):
    assert _residual(path) == []
    assert _residual(star) == []
    assert _residual(Hypergraph(3, [])) == []
    assert _residual(triangle) == [0, 1, 2]
    # a pendant path hanging off a triangle peels away
    tail = Hypergraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert _residual(tail) == [0, 1, 2]


def _reference_residual(graph):
    """A stack peel written independently of ``_strip``: one edge at a
    time, in stack order."""
    edges, incidence = graph.edges, graph._incidence
    deg = graph.degrees()
    alive = [True] * graph.m
    stack = [v for v in range(graph.n) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        ei = next(i for i in incidence[v] if alive[i])
        alive[ei] = False
        for u in edges[ei]:
            deg[u] -= 1
            if deg[u] == 1:
                stack.append(u)
    return [i for i in range(graph.m) if alive[i]]


def test_residual_matches_stack_peel():
    """Peeling ends at the same edge set in any order, so the strip loop,
    the round loop of ``peel_nm`` and the reference stack peel leave the
    same residual, also when ``m > n``."""
    graphs = [messy_instance(random.Random(9_100_003 + s)) for s in range(300)]
    graphs += seeded_family(100, seed=37, n_hi=8, m_cap=16, size_lo=1)
    assert sum(g.m > g.n for g in graphs) >= 50
    for g in graphs:
        rounds_alive = mincore._peel(g, set())[2]
        assert _residual(g) == _reference_residual(g)
        assert _residual(g) == [i for i, a in enumerate(rounds_alive) if a]


def test_fpt_skips_levels_below_residual_excess(monkeypatch):
    """K4 has 6 residual edges on 4 vertices, so levels 0 and 1 cannot succeed."""
    k4 = Hypergraph(4, list(itertools.combinations(range(4), 2)))
    calls, stripped, levels = [], [], []

    def counting_peel(graph, deleted=()):
        calls.append(tuple(deleted))
        return peel_nm(graph, deleted)

    def counting_strip(graph, deg, alive, left, seeds):
        stripped.append((graph is k4, levels[-1] if levels else None))
        return strip(graph, deg, alive, left, seeds)

    def levelled_successes(self, a, part=0, parts=1):
        levels.append(a)
        return successes(self, a, part, parts)

    strip, successes = mincore._strip, mincore._Kernel.successes
    monkeypatch.setattr(mincore, "peel_nm", counting_peel)
    monkeypatch.setattr(mincore, "_strip", counting_strip)
    monkeypatch.setattr(mincore._Kernel, "successes", levelled_successes)
    with pytest.raises(NotFoundWithin) as err:
        mincore_fpt(k4, 1)
    assert err.value.a_max == 1
    # only the strip that finds R; the kernel's base state needs none
    assert stripped == [(True, None)]
    assert calls == levels == []
    stripped.clear()
    res = mincore_fpt(k4, 3)
    assert res.parameter_a == 3
    assert levels == [2, 3]
    assert stripped[:1] == [(True, None)]
    assert {level for on_k4, level in stripped[1:] if not on_k4} == {2, 3}
    assert all(not on_k4 for on_k4, _ in stripped[1:])
    # no deletion of two edges peels K4, so only level 3 reaches peel_nm
    assert {len(d) for d in calls} == {3}


def test_internal_invariants_raise_runtime_error(monkeypatch, path):
    with monkeypatch.context() as patch:
        patch.setattr(mincore, "_core_radius", lambda graph, core, t: None)
        with pytest.raises(RuntimeError, match="must stay a core after re-insertion"):
            mincore_fpt(path, 0)
    # A strip that claims every deletion empties the kernel: deleting two
    # edges at vertex 0 of K4 leaves the triangle 1, 2, 3, which does not peel.
    k4 = Hypergraph(4, list(itertools.combinations(range(4), 2)))
    with monkeypatch.context() as patch:
        patch.setattr(mincore, "_strip", lambda graph, deg, alive, left, seeds: 0)
        with pytest.raises(RuntimeError, match="strips the kernel must peel"):
            mincore_fpt(k4, 2)
    with monkeypatch.context() as patch:
        patch.setattr(mincore, "_residual", lambda graph: list(range(graph.m)))
        with pytest.raises(RuntimeError, match="no degree-one vertex"):
            mincore_fpt(path, 0)
    with pytest.raises(RuntimeError, match="_pool_init"):
        mincore._pool_run((0, 0, 1))


def test_verify_optimal_radius_examples(path, star):
    """No core of size ``n - m`` has a smaller radius than the peeled one."""
    for g in (path, star, Hypergraph(3, [])):
        res = peel_nm(g)
        best = oracle_best_radius_at_size(g, g.n - g.m)
        assert best is not None and best[0] >= res.radius
    with pytest.raises(NoCoreOfSizeNM):
        peel_nm(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]))


def test_peel_radius_is_optimal_at_size_nm():
    for g in seeded_family(60, seed=36, n_hi=9):
        try:
            res = peel_nm(g)
        except NoCoreOfSizeNM:
            continue
        best = oracle_best_radius_at_size(g, g.n - g.m)
        assert best is not None and best[0] == res.radius


def test_peel_linear_size_instance():
    """A chain of overlapping triples peels quickly and exactly."""
    n = 3000
    edges = [(0,), (0, 1)] + [(i - 2, i - 1, i) for i in range(2, n)]
    g = Hypergraph(n, edges)
    res = peel_nm(g)
    assert res.core == frozenset()
    assert is_core(g, res.core)
