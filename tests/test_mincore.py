"""Degree-one peeling and the parameterized minimum-core search."""

import concurrent.futures
import functools
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
    reference_is_core,
)
from hypercore import mincore, propagation
from hypercore.hypergraph import default_thresholds
from hypercore.mincore import PEEL_FAILURE_MESSAGE, MinCoreResult
import reference_peel
import reference_walk
from conftest import messy_instance, seeded_family


def _residual(graph):
    """``mincore._residual`` of ``graph`` from a fresh start state."""
    return mincore._residual(graph, mincore._start_state(graph))


def _peeled(graph, dead=()):
    """``mincore._peel`` of all of ``graph`` without ``dead``, read back in
    the reference loop's form ``(rounds, victims, alive)``: each round an
    ascending edge tuple, ``victims[e]`` the vertex credited to edge ``e``
    and the 0/1 mask of the edges left alive.  Each credited vertex keeps
    its edge in ``sums``, no edge is credited twice, the round ends count
    every credited vertex, and the frontier the loop starts from is left
    as it was."""
    deg, sums, frontier = mincore._start_state(graph)
    held = list(frontier)
    ends = []
    credited = mincore._peel(graph.edges, deg, sums, frontier, dead, ends)
    assert frontier == held
    victims = {sums[v]: v for v in credited}
    assert len(victims) == len(credited) == (ends[-1] if ends else 0)
    rounds = [
        tuple(sorted(sums[v] for v in credited[lo:hi]))
        for lo, hi in zip([0, *ends], ends)
        if lo < hi
    ]
    alive = [int(ei not in victims and ei not in dead) for ei in range(graph.m)]
    return rounds, victims, alive


def test_peel_path(path):
    res = peel_nm(path)
    assert res.core == frozenset({1})
    assert res.radius == 1
    assert res.layers == [(0, 1)]
    assert _peeled(path)[1] == {0: 0, 1: 2}


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
        victims = _peeled(g)[1]
        assert set(victims.values()) == set(range(g.n)) - res.core
        assert len(set(victims.values())) == g.m
        assert all(victims[e] in g.edges[e] for e in victims)


def test_peel_victims_are_the_propagation_credits():
    """Each edge the peel removes a vertex for is the edge ``propagate``
    credits that vertex to.  The family has duplicate edges, which no peel
    gets past, and size-1 edges, which it does."""
    rng = random.Random(33)
    graphs = [messy_instance(rng) for _ in range(300)]
    graphs += seeded_family(200, seed=33, n_hi=10, size_lo=1)
    assert sum(len(set(g.edges)) < g.m for g in graphs) >= 10
    peeled = singletons = 0
    for g in graphs:
        try:
            core = peel_nm(g).core
        except NoCoreOfSizeNM:
            continue
        peeled += 1
        singletons += any(len(e) == 1 for e in g.edges)
        credit = propagate(g, core).credit
        inverse = {j: v for v, j in enumerate(credit) if j >= 0}
        assert _peeled(g)[1] == inverse, g.edges
    assert peeled >= 100 and singletons >= 10


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
    # The last instance's 20 subsets of classes at a = 3 split into two
    # parts whose bests tie at radius 3; part 0's (1, 3, 9) is the smaller
    # tuple.
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


def _assert_one_task_per_worker(pools, levels):
    """Pool ``i`` maps exactly the levels ``levels[i]``, one ``map`` call
    each, in order, and each call holds one task ``(a, part, workers)``
    per part."""
    assert len(pools) == len(levels)
    for (workers, maps), run in zip(pools, levels):
        assert maps == [[(a, w, workers) for w in range(workers)] for a in run]


def test_fpt_pool_parts_take_turns_at_prefixes(pools, monkeypatch):
    """The parts take turns at prefixes of class-level subsets, and each
    part strips from the kernel's base state and decides every deletion
    under the prefixes it owns, so the pool returns what the serial search
    does.  A search maps the levels from the start of lemma 6' to the
    first success, none when the start lies above ``a_max``."""
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 3)
    checked = unmapped = 0
    levels = []
    for s in range(400):
        g = generate_random(24, 22, 2, 3, s)
        residual = _residual(g)
        start = _start(g, residual)
        classes = len(_reference_classes(g, residual))
        serial = _outcome(mincore_fpt, g, 3)
        top = serial.parameter_a if isinstance(serial, MinCoreResult) else 3
        if start <= top and all(math.comb(classes, a) <= 64 for a in range(start, top + 1)):
            continue
        assert _outcome(mincore_fpt, g, 3, jobs=2) == serial
        assert _outcome(mincore_fpt, g, 3, jobs=3) == serial
        levels += [range(start, top + 1)] * 2
        if start > top:
            unmapped += 1
            continue
        checked += 1
        if checked == 30:
            break
    assert checked == 30 and unmapped >= 1
    assert [workers for workers, _ in pools] == [2, 3] * (checked + unmapped)
    _assert_one_task_per_worker(pools, levels)


def test_fpt_real_pool_matches_serial(monkeypatch):
    """Two worker processes, whatever the host's CPU count.  In the first
    instance part 1's best has the smaller radius; in the second the parts
    tie on radius and part 0 holds the smaller deleted tuple."""
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 2)
    for seed, a, relation in ((27, 1, "beats"), (0, 2, "ties")):
        g = generate_random(10, 10, 2, 3, seed)
        kernel = mincore._Kernel(g)
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


def test_pool_parts_repeat_less_of_the_serial_walk(monkeypatch):
    """At the first level with a success of two instances, each of 2 parts
    makes at most 0.66 of the serial walk's ``_absorb`` calls and each of
    4 parts at most 0.47, since a part extends only the shorter prefixes
    and the prefixes it owns, and every part expands within 5 % of an even
    share of the deletions."""
    calls = [0]

    def counting_absorb(graph, active, need, left, seeds):
        calls[0] += 1
        return absorb(graph, active, need, left, seeds)

    def walk(kernel, a, part=0, parts=1):
        """``_absorb`` calls and expanded deletions of one part."""
        calls[0] = 0
        deletions = sum(
            math.prod(len(kernel.classes[c]) for c in combo)
            for combo in _successes(kernel, a, part, parts)
        )
        return calls[0], deletions

    absorb = propagation._absorb
    monkeypatch.setattr(propagation, "_absorb", counting_absorb)
    for shape, level in (((30, 34, 2, 2, 0), 9), ((36, 40, 2, 2, 5), 10)):
        kernel = mincore._Kernel(generate_random(*shape))
        assert kernel.start == level  # lemma 6' is exact: every edge has two vertices
        serial, total = walk(kernel, level)
        assert total > 0
        for parts, share in ((2, 0.66), (4, 0.47)):
            for part in range(parts):
                extended, deletions = walk(kernel, level, part, parts)
                assert extended <= share * serial, (shape, parts, part)
                assert abs(deletions * parts - total) <= 0.05 * total, (shape, parts, part)


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
    _assert_one_task_per_worker(pools, [range(_start(g, _residual(g)), expected.parameter_a + 1)] * 2)
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


def _local(g, residual):
    """``R`` as its own hypergraph: edge ``i`` is edge ``residual[i]`` of
    ``g`` with its vertices renumbered ascending over ``V(R)``."""
    spanned = sorted({v for ei in residual for v in g.edges[ei]})
    index = {v: i for i, v in enumerate(spanned)}
    return Hypergraph(len(spanned), [[index[v] for v in g.edges[ei]] for ei in residual])


def _reference_strips(g, residual):
    """``strip(deleted)``, the mask of the edges of ``R`` that a fresh
    reference strip of ``R - deleted`` leaves alive, with ``deleted`` a
    tuple of positions in ``residual``; each mask is computed once."""
    local = _local(g, residual)
    template = local.degrees()
    return functools.lru_cache(maxsize=None)(
        lambda deleted: reference_peel._strip(local, template, deleted)
    )


def _passed_over(strip, combo):
    """Whether the kernel passes over the deletion ``combo``: some edge of
    it is already stripped by ``R`` without the edges before it."""
    return any(not strip(combo[:i])[x] for i, x in enumerate(combo))


def _relabel(labels, groups):
    """Join ``groups`` into classes: each item of a group takes the least
    label in it, until no label changes."""
    changed = True
    while changed:
        changed = False
        for group in groups:
            low = min(labels[x] for x in group)
            for x in group:
                if labels[x] != low:
                    labels[x] = low
                    changed = True
    return labels


def _start(g, residual):
    """Lemma 6' of ``mincore_fpt``, counted without the kernel:
    ``max(0, |R| - |V(R)| + c2(R))``, where ``c2`` counts the components of
    ``R`` on ``V(R)`` that hold no size-1 edge."""
    edges = [g.edges[ei] for ei in residual]
    label = _relabel({v: v for e in edges for v in e}, edges)
    ones = {label[e[0]] for e in edges if len(e) == 1}
    return max(0, len(edges) - len(label) + len(set(label.values())) - len(ones))


def _reference_classes(g, residual):
    """The classes of lemma 9, found without the kernel: positions in
    ``residual`` joined when their edges share a vertex that lies in no
    other residual edge, as ascending tuples ordered by least member."""
    spanned = {v for ei in residual for v in g.edges[ei]}
    at = [[i for i, ei in enumerate(residual) if v in g.edges[ei]] for v in sorted(spanned)]
    label = _relabel(list(range(len(residual))), [pair for pair in at if len(pair) == 2])
    classes = {}
    for i, low in enumerate(label):
        classes.setdefault(low, []).append(i)
    return sorted(tuple(members) for members in classes.values())


def _representatives(kernel, combos):
    """Each class-level subset in ``combos`` as the positions in ``R`` of
    its classes' least members."""
    return [tuple(kernel.classes[i][0] for i in combo) for combo in combos]


def _expanded(kernel, combos):
    """The deletions, as ascending positions in ``R``, that take one member
    of each class of each class-level subset in ``combos``."""
    return [
        tuple(sorted(choice))
        for combo in combos
        for choice in itertools.product(*[kernel.classes[i] for i in combo])
    ]


def _successes(kernel, a, part=0, parts=1):
    """The class-level successes ``kernel.best(a, part, parts)`` expands:
    the subsets of classes whose representatives ``_cores`` yields on the
    kernel's dual, with the call ``best`` makes."""
    reps = [members[0] for members in kernel.classes]
    return propagation._cores(kernel.dual, kernel.base, reps, a, True, part, parts)


def test_kernel_verdicts_and_search_match_whole_instance_scan():
    """Stripping ``R - D`` decides every deletion as peeling ``G - D`` does
    (lemma 3).  The kernel walks the representatives of lemma 9's classes
    and yields the subsets whose representatives peel, less the ones it
    passes over, which hold none at a level up to the first success; there
    the member choices of its yield are exactly the successes, and at every
    level they all succeed.  The search returns what the whole-instance
    scan does."""
    graphs = _kernel_family()
    assert sum(len(set(g.edges)) < g.m for g in graphs) >= 40  # duplicate edges
    assert sum(any(len(e) == 1 for e in g.edges) for g in graphs) >= 40
    assert sum(min(g.degrees(), default=1) == 0 for g in graphs) >= 40  # isolated
    assert sum(g.m > g.n for g in graphs) >= 40
    dropped = merged = 0
    for g in graphs:
        kernel = mincore._Kernel(g)
        residual = kernel.residual
        assert kernel.classes == _reference_classes(g, residual)
        merged += len(kernel.classes) < len(residual)
        strip = _reference_strips(g, residual)
        top = len(residual) if len(residual) <= 10 else 3
        found = False
        for a in range(top + 1):
            combos = list(itertools.combinations(range(len(residual)), a))
            peeling = [c for c in combos if _peels(g, [residual[i] for i in c])]
            assert peeling == [c for c in combos if 1 not in strip(c)]
            kept = [c for c in peeling if not _passed_over(strip, c)]
            if not found:  # no level below this one has a success
                assert kept == peeling
            yielded = list(_successes(kernel, a))
            leaves = list(itertools.combinations(range(len(kernel.classes)), a))
            chosen = set(kept)
            assert yielded == [c for c, r in zip(leaves, _representatives(kernel, leaves)) if r in chosen]
            expanded = _expanded(kernel, yielded)
            assert set(expanded) <= set(peeling)
            if not found:  # the member choices, as a set and without repeats
                assert sorted(expanded) == peeling
            found = found or bool(peeling)
            dropped += len(peeling) - len(kept)
        assert _outcome(mincore_fpt, g, g.n) == _outcome(_scan_reference, g, g.n)
    assert dropped >= 1_000  # the skip passes over successes above the first level
    assert merged >= 40


def test_kernel_successes_passed_over_do_not_shadow():
    """Above the first success the kernel passes over successes, so a
    subtree of class subsets that yields nothing may still hold successes
    and must not shadow its siblings.  On this multigraph every residual
    edge is a class but for ``{4, 5}``, and level 3 holds the first
    successes.  At level 4 the closure of classes 0 and 1 holds 2 and 3,
    so the walk passes over every subset under ``(0, 1)``, two of them
    successes; had that subtree shadowed its closure, classes 2 and 3
    would not be reached at depth 1, and ``(0, 2, 3, 4)``, the one success
    the walk yields there, would be left out.  At each level the walk
    yields the subsets whose representatives peel, less those it passes
    over."""
    g = Hypergraph(4, [(1, 2), (1, 3), (2, 3), (1, 3), (0, 2), (0, 2)])
    kernel = mincore._Kernel(g)
    residual = kernel.residual
    assert kernel.classes == [(0,), (1,), (2,), (3,), (4, 5)] and kernel.start == 3
    strip = _reference_strips(g, residual)
    leaves = {}
    for a in range(3, 6):
        kept = {
            c
            for c in itertools.combinations(range(len(residual)), a)
            if _peels(g, [residual[i] for i in c]) and not _passed_over(strip, c)
        }
        subsets = list(itertools.combinations(range(5), a))
        leaves[a] = [c for c, r in zip(subsets, _representatives(kernel, subsets)) if r in kept]
        assert list(_successes(kernel, a)) == leaves[a]
    assert leaves[3] and leaves[4] == [(0, 2, 3, 4)]
    # residual[i] == i and classes 0-4 have representatives 0-4
    under = [c for c in itertools.combinations(range(5), 4) if c[:2] == (0, 1)]
    assert all(_passed_over(strip, c) for c in under)
    assert [c for c in under if _peels(g, c)] == [(0, 1, 2, 4), (0, 1, 3, 4)]
    assert kernel.best(4) == (1, (0, 2, 3, 4), frozenset({2, 3}))


def test_dual_cores_are_the_deletions_that_strip_the_residual():
    """Lemma 8 of ``mincore_fpt``, checked with no code of ``_absorb``: the
    kernel's dual has one edge per vertex of ``R``, holding the edges of
    ``R`` at it, and a fresh reference strip of ``R - D`` leaves no edge
    iff ``reference_is_core`` accepts ``D`` on the dual, for every ``D``
    with ``|D| <= 3`` (every ``D`` when ``|R| <= 10``)."""
    decided = cores = 0
    for g in _kernel_family():
        residual = _residual(g)
        dual = mincore._Kernel(g).dual
        spanned = sorted({v for ei in residual for v in g.edges[ei]})
        at = [tuple(i for i, ei in enumerate(residual) if v in g.edges[ei]) for v in spanned]
        assert (dual.n, sorted(dual.edges)) == (len(residual), sorted(at))
        strip = _reference_strips(g, residual)
        top = len(residual) if len(residual) <= 10 else 3
        for a in range(top + 1):
            for combo in itertools.combinations(range(len(residual)), a):
                stripped = 1 not in strip(combo)
                assert stripped == reference_is_core(dual, combo), (g.edges, combo)
                decided += 1
                cores += stripped
    assert decided >= 10_000
    assert 1_000 <= cores <= decided - 1_000


def _kernel_extensions(strip, reps, levels, shadows=True):
    """Closure extensions the kernel makes while trying ``levels`` over the
    class representatives ``reps``, positions in ``R``: those of the walk
    of ``reference_walk`` with ``minimal``, where the closure of a prefix
    is the set of edges of ``R`` that the reference strip of ``R`` without
    the prefix's representatives leaves dead, with or without
    ``shadows``.  The base state is never extended."""
    whole = len(strip(()))

    @functools.lru_cache(maxsize=None)
    def closure(prefix):
        return {i for i, alive in enumerate(strip(tuple(reps[x] for x in prefix))) if not alive}

    extended = []
    for a in levels:
        for _ in reference_walk.walk(
            len(reps), a, reps.__getitem__, closure, whole, extended, True, shadows=shadows
        ):
            pass
    return len(extended)


def test_fpt_peels_the_instance_only_for_successes(monkeypatch):
    """The peel loop runs on the instance once to find ``R``, once per
    successful deletion at the levels tried, and once more when
    ``peel_nm`` confirms the winner: ``peel_nm`` runs exactly once on a
    search that succeeds and never on one that does not.  Besides the
    closure of the empty set, the kernel extends the closure of each
    prefix of class representatives it reaches once per level, and only
    when its last representative is not already in the shorter prefix's
    closure; a representative in a shadow is not reached, which spares
    extensions on some searches."""
    peeled, looped, absorbed = [], [], []

    def counting_peel(graph, deleted=()):
        peeled.append(tuple(deleted))
        return peel_nm(graph, deleted)

    def counting_loop(edges, deg, sums, frontier, dead, ends=None):
        looped.append(edges is g.edges)
        return loop(edges, deg, sums, frontier, dead, ends)

    def counting_absorb(graph, active, need, left, seeds):
        absorbed.append(graph is g)
        return absorb(graph, active, need, left, seeds)

    loop, absorb = mincore._peel, propagation._absorb
    cases = []
    for s in range(120):
        rng = random.Random(9_300_007 + s)
        cases.append((messy_instance(rng), rng.randint(0, 4)))
    # wider residuals, where a passed-over prefix would have had children
    cases += [(g, 4) for g in seeded_family(60, seed=38, n_hi=8, m_cap=14, size_lo=1)]
    extended = spared = 0
    for g, a_max in cases:
        residual = _residual(g)
        outcome = _outcome(_scan_reference, g, a_max)
        found = isinstance(outcome, MinCoreResult)
        levels = range(_start(g, residual), (outcome.parameter_a if found else a_max) + 1)
        successes = sum(
            _peels(g, deleted) for a in levels for deleted in itertools.combinations(residual, a)
        )
        reps = [members[0] for members in _reference_classes(g, residual)]
        strip = _reference_strips(g, residual)
        expected = _kernel_extensions(strip, reps, levels)
        spared += expected < _kernel_extensions(strip, reps, levels, shadows=False)
        peeled.clear()
        looped.clear()
        absorbed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(mincore, "peel_nm", counting_peel)
            patch.setattr(mincore, "_peel", counting_loop)
            patch.setattr(propagation, "_absorb", counting_absorb)
            assert _outcome(mincore_fpt, g, a_max) == outcome
        assert peeled == ([outcome.deleted_edges] if found else [])
        assert looped == [True] * (1 + successes + found)
        assert absorbed == [False] * (1 + expected)  # the first builds the base state
        extended += expected
    assert extended >= 200 and spared >= 5, (extended, spared)


def test_peel_with_deleted_edges_matches_rebuilt_subgraph(triangle):
    res = peel_nm(triangle, deleted=(1,))
    rebuilt = peel_nm(Hypergraph(3, [(0, 1), (0, 2)]))
    assert res.core == rebuilt.core == frozenset({0})
    # layers and the victims keep the indices of the full instance
    assert res.layers == [(0, 2)]
    assert _peeled(triangle, {1})[1] == {0: 1, 2: 2}
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
    """A stack peel written independently of ``_peel``: one edge at a
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
    """Peeling ends at the same edge set in any order, so the round loop
    of ``peel_nm``, which ``_residual`` reads, from a fresh start state or
    from the one a kernel holds, and the reference stack peel leave the
    same residual, also when ``m > n``."""
    graphs = [messy_instance(random.Random(9_100_003 + s)) for s in range(300)]
    graphs += seeded_family(100, seed=37, n_hi=8, m_cap=16, size_lo=1)
    assert sum(g.m > g.n for g in graphs) >= 50
    for g in graphs:
        assert _residual(g) == mincore._Kernel(g).residual == _reference_residual(g)


def test_fpt_skips_levels_below_residual_excess(monkeypatch):
    """K4 has 6 residual edges on 4 vertices in one component with no
    size-1 edge, so by lemma 6' levels 0, 1 and 2 cannot succeed."""
    k4 = Hypergraph(4, list(itertools.combinations(range(4), 2)))
    strip = _reference_strips(k4, list(range(6)))
    assert all(1 in strip(c) for a in range(3) for c in itertools.combinations(range(6), a))
    calls, looped, absorbed, levels = [], [], [], []

    def counting_peel(graph, deleted=()):
        calls.append(tuple(deleted))
        return peel_nm(graph, deleted)

    def counting_loop(edges, deg, sums, frontier, dead, ends=None):
        looped.append((edges is k4.edges, len(dead)))
        return loop(edges, deg, sums, frontier, dead, ends)

    def counting_absorb(graph, active, need, left, seeds):
        absorbed.append((graph is k4, levels[-1] if levels else None))
        return absorb(graph, active, need, left, seeds)

    def levelled_cores(graph, base, items, k, *args):
        levels.append(k)
        return cores(graph, base, items, k, *args)

    loop, absorb, cores = mincore._peel, propagation._absorb, mincore._cores
    monkeypatch.setattr(mincore, "peel_nm", counting_peel)
    monkeypatch.setattr(mincore, "_peel", counting_loop)
    monkeypatch.setattr(propagation, "_absorb", counting_absorb)
    monkeypatch.setattr(mincore, "_cores", levelled_cores)
    with pytest.raises(NotFoundWithin) as err:
        mincore_fpt(k4, 2)
    assert err.value.a_max == 2
    # only the peel that finds R, and the closure of the empty set
    assert looped == [(True, 0)]
    assert absorbed == [(False, None)]
    assert calls == levels == []
    looped.clear()
    absorbed.clear()
    res = mincore_fpt(k4, 3)
    assert res.parameter_a == 3
    assert levels == [3]
    assert absorbed == [(False, None)] + [(False, 3)] * _kernel_extensions(strip, range(6), [3])
    # every spanning tree's complement peels, and peel_nm confirms the winner
    successes = sum(1 not in strip(c) for c in itertools.combinations(range(6), 3))
    assert successes == 16
    assert calls == [res.deleted_edges]
    assert looped == [(True, 0)] + [(True, 3)] * (successes + 1)


def test_start_level_is_the_least_success_on_graph_residuals():
    """Lemma 6' is exact when every residual edge has two vertices: on
    random graphs the kernel's start is the least level at which a fresh
    reference strip finds a deletion that strips ``R``, and lemma 9's
    classes number at most three per deleted edge there.  Each class's
    members lie in the same closures: swapping one for another never
    changes what the strip leaves."""
    checked, least, ratio = 0, set(), 0.0
    rng = random.Random(9_500_003)
    for n, m in ((8, 10), (9, 12), (7, 11)):
        for s in range(350):
            g = generate_random(n, m, 2, 2, s)
            residual = _residual(g)
            if not residual:
                continue
            kernel = mincore._Kernel(g)
            strip = _reference_strips(g, residual)
            a = 0
            while all(1 in strip(c) for c in itertools.combinations(range(len(residual)), a)):
                a += 1
            assert kernel.start == _start(g, residual) == a
            assert len(kernel.classes) <= 3 * a
            for members in kernel.classes:
                if len(members) > 1:
                    x, y = rng.sample(members, 2)
                    rest = [i for i in range(len(residual)) if i not in members]
                    kept = rng.sample(rest, min(len(rest), a - 1))
                    assert strip(tuple(sorted([x, *kept]))) == strip(tuple(sorted([y, *kept])))
            checked += 1
            least.add(a)
            ratio = max(ratio, len(kernel.classes) / a)
    assert checked >= 1_000
    assert least >= {3, 4, 5, 6} and ratio > 2


def test_no_success_below_the_start_level():
    """On the shapes of the ``fpt_search`` benchmark and two wider ones,
    every level from the start of lemma 6, ``|R| - |V(R)|``, up to below
    the start of lemma 6', and at most 3, holds no deletion that strips
    ``R``: a walk over every vertex of the dual, with no classes, yields
    nothing there."""
    levels = 0
    for shape in ((24, 22, 2, 3), (40, 40, 2, 3), (30, 26, 2, 4)):
        for s in range(100):
            g = generate_random(*shape, s)
            kernel = mincore._Kernel(g)
            dual = kernel.dual
            for a in range(max(0, dual.n - dual.m), min(kernel.start, 4)):
                assert not any(propagation._cores(dual, kernel.base, range(dual.n), a, True))
                levels += 1
    assert levels >= 100


def test_each_distinct_core_is_scored_once_per_call(monkeypatch):
    """``best`` propagates over the instance once for each distinct core
    that the successes of its call peel to, part by part, and a second
    call scores them again: the radii are kept per call."""
    scored = []

    def counting_radius(graph, core, t):
        scored.append(core)
        return radius(graph, core, t)

    radius = mincore._core_radius
    monkeypatch.setattr(mincore, "_core_radius", counting_radius)
    successes = cores = 0
    for s in range(60):
        g = generate_random(24, 22, 2, 3, s)
        kernel = mincore._Kernel(g)
        residual = kernel.residual
        for parts in (1, 2):
            for part in range(parts):
                for a in range(kernel.start, 4):
                    deletions = _expanded(kernel, _successes(kernel, a, part, parts))
                    peeled = set()
                    for d in deletions:
                        victims = reference_peel._peel(g, {residual[i] for i in d})[1]
                        peeled.add(frozenset(range(g.n)).difference(victims.values()))
                    for _ in range(2):
                        scored.clear()
                        kernel.best(a, part, parts)
                        assert sorted(map(sorted, scored)) == sorted(map(sorted, peeled))
                    successes += len(deletions)
                    cores += len(peeled)
                    if deletions:
                        break
    assert successes >= 5 * cores > 0


def test_kernel_peels_give_the_cores_of_peel_nm(monkeypatch):
    """``best`` peels exactly the member choices of its successes, each
    from the start state its kernel holds, and the core it takes from
    each, the held vertex set less the credited vertices, is the core
    ``peel_nm`` finds without the same deletion, at every level from the
    start up to 3.  The family has duplicate edges, size-1 edges and
    isolated vertices."""
    seen = []

    def recording_loop(edges, deg, sums, frontier, dead, ends=None):
        victims = loop(edges, deg, sums, frontier, dead, ends)
        seen.append((tuple(dead), victims))
        return victims

    loop = mincore._peel
    checked = 0
    for g in _kernel_family():
        kernel = mincore._Kernel(g)
        residual = kernel.residual
        for a in range(kernel.start, 4):
            expected = [
                tuple(residual[i] for i in d) for d in _expanded(kernel, _successes(kernel, a))
            ]
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(mincore, "_peel", recording_loop)
                kernel.best(a)
            assert sorted(d for d, _ in seen) == sorted(expected)
            for d, victims in seen:
                assert kernel.vertices.difference(victims) == peel_nm(g, d).core
            checked += len(seen)
    assert checked >= 1_000


def test_best_leaves_the_held_start_state_as_it_was(pools, monkeypatch):
    """``best`` peels copies of the start state its kernel holds: after
    serial calls, pool parts and a two-worker search (its pool run in
    this process, on the kernel ``mincore_fpt`` built), the state and the
    vertex set are as built, and a second call of ``best`` returns what
    the first did.  Every instance here has a class of two or more
    members."""
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 2)
    checked = 0
    for s in range(40):
        g = generate_random(24, 22, 2, 3, s)
        kernel = mincore._Kernel(g)
        if all(len(members) == 1 for members in kernel.classes):
            continue
        held = mincore._start_state(g)
        assert kernel.state == held
        for a in range(kernel.start, 4):
            first = kernel.best(a)
            assert kernel.best(a) == first
            hits = [kernel.best(a, w, 2) for w in range(2)]
            assert min((h for h in hits if h is not None), default=None) == first
        assert kernel.state == held and kernel.vertices == frozenset(range(g.n))
        serial = _outcome(mincore_fpt, g, 3)
        assert _outcome(mincore_fpt, g, 3, jobs=2) == serial
        pooled = mincore._POOL_KERNEL
        assert pooled.state == held and pooled.vertices == frozenset(range(g.n))
        checked += 1
    assert checked >= 20


def test_fpt_pool_parts_expand_classes(pools, monkeypatch):
    """Where a class-level success stands for two or more deletions, each
    part expands the successes it decides, and the least over the parts is
    the serial answer: two workers return what one does."""
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 2)
    checked = 0
    for s in range(200):
        g = generate_random(24, 22, 2, 3, s)
        serial = _outcome(mincore_fpt, g, 3)
        if not isinstance(serial, MinCoreResult):
            continue
        kernel = mincore._Kernel(g)
        a = serial.parameter_a
        combos = list(_successes(kernel, a))
        if len(_expanded(kernel, combos)) == len(combos):
            continue
        assert _outcome(mincore_fpt, g, 3, jobs=2) == serial
        hits = [kernel.best(a, w, 2) for w in range(2)]
        assert min(h for h in hits if h is not None) == (
            serial.radius,
            serial.deleted_edges,
            serial.core,
        )
        checked += 1
    assert checked >= 30
    assert [workers for workers, _ in pools] == [2] * checked


def test_fpt_real_pool_expands_classes(monkeypatch):
    """Two worker processes on instances whose winning level has a class
    with two or more members."""
    monkeypatch.setattr(mincore, "_cpu_count", lambda: 2)
    for seed in (1, 3):
        g = generate_random(24, 22, 2, 3, seed)
        kernel = mincore._Kernel(g)
        serial = mincore_fpt(g, 3)
        combos = list(_successes(kernel, serial.parameter_a))
        assert len(_expanded(kernel, combos)) > len(combos)
        assert mincore_fpt(g, 3, jobs=2) == serial


def test_internal_invariants_raise_runtime_error(monkeypatch, path):
    with monkeypatch.context() as patch:
        patch.setattr(mincore, "_core_radius", lambda graph, core, t: None)
        with pytest.raises(RuntimeError, match="must stay a core after re-insertion"):
            mincore_fpt(path, 0)
    # A closure loop that claims every deletion activates all of the dual:
    # deleting the three edges at vertex 0 of K4 leaves the triangle 1, 2,
    # 3, which does not peel.
    k4 = Hypergraph(4, list(itertools.combinations(range(4), 2)))
    with monkeypatch.context() as patch:
        patch.setattr(propagation, "_absorb", lambda graph, active, need, left, seeds: 0)
        with pytest.raises(RuntimeError, match="strips the kernel must peel"):
            mincore_fpt(k4, 3)
    with monkeypatch.context() as patch:
        patch.setattr(mincore, "_residual", lambda graph, state: list(range(graph.m)))
        with pytest.raises(RuntimeError, match="no degree-one vertex"):
            mincore_fpt(path, 0)
    with pytest.raises(RuntimeError, match="_pool_init"):
        mincore._pool_run((0, 0, 1))
    # A kernel peel that credits the wrong vertices scores a core of the
    # path, {2}, that peel_nm's confirmation does not find.  The first
    # peel finds R and peel_nm's peel records its rounds: both are kept.
    loop, calls = mincore._peel, []

    def miscrediting_loop(edges, deg, sums, frontier, dead, ends=None):
        victims = loop(edges, deg, sums, frontier, dead, ends)
        calls.append(ends)
        return victims if calls == [None] or ends is not None else list(range(len(victims)))

    with monkeypatch.context() as patch:
        patch.setattr(mincore, "_peel", miscrediting_loop)
        with pytest.raises(RuntimeError, match="the one peel_nm finds"):
            mincore_fpt(path, 0)


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
