"""Activation semantics: verdicts, layers, radius, threshold generalization."""

import itertools
import random
import re
import sys

import pytest

from hypercore import (
    Hypergraph,
    assimilated_closure,
    is_core,
    PropagationTrace,
    propagate,
    reference_is_core,
    trace_report,
)
from hypercore.hypergraph import default_thresholds, resolve_thresholds
from hypercore import propagation
from hypercore.propagation import _absorb, _base_state, _check_core, _cores, _spread
from conftest import all_subsets, messy_instance, seeded_family
import reference_walk


def test_is_core_examples(triangle):
    single = Hypergraph(2, [(0, 1)])
    assert is_core(single, {0})
    assert not is_core(single, set())
    assert is_core(triangle, {0})
    assert is_core(Hypergraph(3, [(0, 1, 2)]), {0}, [1])


def test_vertices_outside_every_edge_must_seed():
    g = Hypergraph(3, [(0, 1)])
    assert not is_core(g, {0})
    assert is_core(g, {0, 2})
    with pytest.raises(ValueError, match=r"^core vertex 3 outside \[0, 3\)$"):
        is_core(g, {3})
    assert not is_core(Hypergraph(3, []), {0, 1})
    assert is_core(Hypergraph(3, []), {0, 1, 2})


def test_propagate_triangle(triangle):
    trace = propagate(triangle, {0})
    assert trace.verdict
    assert trace.layers == [(0, 2), (1,)]
    assert trace.radius == 2
    assert sorted(set(trace.credit) - {-1}) == [0, 2]  # edge 1 activates nothing new
    assert trace.credit == [-1, 0, 2]
    assert trace.depth == [0, 1, 1]


def test_propagate_path_center(path):
    trace = propagate(path, {1})
    assert trace.verdict and trace.radius == 1
    assert trace.layers == [(0, 1)]


def test_propagate_full_core_zero_layers(triangle):
    trace = propagate(triangle, {0, 1, 2})
    assert trace.verdict
    assert trace.layers == []
    assert trace.initially_covered == (0, 1, 2)
    assert trace.radius == 0


def test_radius_examples(triangle, path):
    cases = ((triangle, {0}, 2), (path, {0}, 2), (Hypergraph(0, []), set(), 0))
    for g, core, r in cases:
        trace = propagate(g, core)
        assert trace.verdict and trace.radius == r
    trace = propagate(triangle, set())
    assert not trace.verdict and trace.radius == 0


def test_threshold_one_assimilates_whole_edge():
    g = Hypergraph(3, [(0, 1, 2)])
    trace = propagate(g, {0}, [1])
    assert trace.verdict and trace.radius == 1
    assert trace.depth == [0, 1, 1]
    assert trace.credit == [-1, 0, 0]


def test_threshold_rule_validation():
    g = Hypergraph(3, [(0, 1, 2), (0,)])
    assert resolve_thresholds(g, (2, 0)) == (2, 0)  # also caches the defaults
    # A list or any other sequence resolves to a tuple.
    assert resolve_thresholds(g, (1, 0)) == resolve_thresholds(g, [1, 0]) == (1, 0)
    assert resolve_thresholds(g, None) == (2, 0)
    # A list of pairs, not a dict: (2.0, 0) == (2, False) as keys.
    refused = [
        ((3, 0), "threshold 3 for edge 0 outside [0, 2]"),
        ((1, 1), "threshold 1 for edge 1 outside [0, 0]"),
        ((-1, 0), "threshold -1 for edge 0 outside [0, 2]"),
        ((1,), "threshold count differs from edge count"),
        # Only ints count: equal to the defaults or not, a float or bool is refused.
        ((1.5, 0), "threshold 1.5 for edge 0 is not an integer"),
        ((2.0, 0), "threshold 2.0 for edge 0 is not an integer"),
        ((True, 0), "threshold True for edge 0 is not an integer"),
        ((2, False), "threshold False for edge 1 is not an integer"),
    ]
    checks = (lambda t: resolve_thresholds(g, t), lambda t: is_core(g, {0}, t))
    for bad, message in refused:
        for given, check in itertools.product((bad, list(bad)), checks):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(given)
    # {3} is a core under [1, 1, 1] and [1, 1, 2]; 1.5 between them is refused.
    h = Hypergraph(4, [(0, 3), (1, 3), (0, 1, 2)])
    assert is_core(h, {3}, [1, 1, 1]) and is_core(h, {3}, [1, 1, 2])
    with pytest.raises(ValueError, match="not an integer"):
        is_core(h, {3}, [1, 1, 1.5])


def test_extending_tiebreak_prefers_smaller_index():
    g = Hypergraph(2, [(0, 1), (0, 1)])
    trace = propagate(g, {0})
    assert trace.layers == [(0, 1)]
    assert 1 not in trace.credit
    assert trace.credit == [-1, 0]


def test_monotonicity_property():
    for g in seeded_family(40, seed=21, n_hi=8, size_lo=1):
        for core in all_subsets(g.n):
            if is_core(g, core):
                bigger = set(core)
                for v in range(g.n):
                    assert is_core(g, bigger | {v})
                break


def test_core_soundness_and_layer_validity():
    """Every vertex is seeded or assimilated once; layers obey thresholds."""
    for g in seeded_family(40, seed=22, n_hi=8, size_lo=1):
        for core in all_subsets(g.n):
            trace = propagate(g, core)
            if not trace.verdict:
                continue
            assert -1 not in trace.depth and len(trace.depth) == g.n
            t = default_thresholds(g)
            reached = set(core)
            for depth, layer in enumerate(trace.layers, start=1):
                for e_idx in layer:
                    e = set(g.edges[e_idx])
                    assert len(e & reached) >= t[e_idx]
                reached |= {v for v, d in enumerate(trace.depth) if d == depth}
            # layers are minimal: each edge misses its threshold one round earlier
            reached = set(core)
            earlier: list[set] = []
            for layer in trace.layers:
                earlier.append(set(reached))
                reached |= {v for e in layer for v in g.edges[e]}
            for depth, layer in enumerate(trace.layers):
                if depth == 0:
                    continue
                for e_idx in layer:
                    e = set(g.edges[e_idx])
                    assert len(e & earlier[depth - 1]) < t[e_idx]
            break


def test_extending_edges_credit_one_vertex_each():
    for g in seeded_family(40, seed=23, n_hi=8, size_lo=1):
        core = next(c for c in all_subsets(g.n) if is_core(g, c))
        trace = propagate(g, core)
        credited = [j for j in trace.credit if j >= 0]
        assert len(set(credited)) == len(credited)
        assert len(credited) == g.n - len(core)
        # a credited vertex enters in the layer of the edge credited with it
        layer_of = {e: d for d, layer in enumerate(trace.layers, 1) for e in layer}
        for v, e in enumerate(trace.credit):
            if e >= 0:
                assert trace.depth[v] == layer_of[e]


def test_radius_zero_iff_all_edges_inside():
    for g in seeded_family(30, seed=24, n_hi=7, size_lo=1):
        for core in all_subsets(g.n):
            trace = propagate(g, core)
            if trace.verdict:
                inside = all(set(e) <= core for e in g.edges)
                assert (trace.radius == 0) == inside


def test_fast_check_matches_reference_and_trace():
    for g in seeded_family(30, seed=25, n_hi=10, size_lo=1):
        for core in all_subsets(g.n):
            fast = is_core(g, core)
            assert fast == reference_is_core(g, core)
            assert fast == propagate(g, core).verdict


def test_assimilated_closure_matches_trace(triangle):
    assert assimilated_closure(triangle, {0}) == {0, 1, 2}
    g = Hypergraph(4, [(0, 1), (2, 3)])
    assert assimilated_closure(g, {0}) == {0, 1}


def test_trace_report_shape(triangle):
    text = trace_report(propagate(triangle, {0}))
    lines = text.splitlines()
    assert lines[0] == "verdict core"
    assert "layer 1: 1 3" in lines
    assert "layer 2: 2" in lines
    assert "vertex 1 layer 0" in lines
    assert "vertex 2 layer 1" in lines
    bad = trace_report(propagate(triangle, set()))
    assert "not-a-core" in bad and "uncovered" in bad


def test_trace_report_lists_active_vertices_in_order():
    g = Hypergraph(5, [(3, 4), (0, 1)])
    trace = propagate(g, {3})
    assert trace.depth == [-1, -1, -1, 0, 1]
    assert trace_report(trace) == (
        "verdict not-a-core\n"
        "layer 1: 1\n"
        "vertex 4 layer 0\n"
        "vertex 5 layer 1\n"
        "uncovered 2\n"
    )


# The two engines the single round loop replaced, kept as references: a
# stack closure behind ``is_core``/``assimilated_closure`` and a separate
# round-based ``propagate``.  The old trace also carried an ``extending``
# flag list, dropped here because it equals ``j in trace.credit``.


def _isolated_outside(graph, core):
    return any(
        not graph._incidence[v] and v not in core for v in range(graph.n)
    )


def _reference_is_core(graph, core, thresholds=None):
    cs = _check_core(graph, core)
    t = resolve_thresholds(graph, thresholds)
    if _isolated_outside(graph, cs):
        return False
    covered = _closure(graph, cs, t)[1]
    return all(covered)


def _reference_closure(graph, core, thresholds=None):
    cs = _check_core(graph, core)
    t = resolve_thresholds(graph, thresholds)
    assim = _closure(graph, cs, t)[0]
    return {v for v in range(graph.n) if assim[v]}


def _closure(graph, core, t):
    assim = bytearray(graph.n)
    covered = bytearray(graph.m)
    count = [0] * graph.m
    edges = graph.edges
    incidence = graph._incidence
    stack = []
    for v in core:
        assim[v] = 1
        stack.append(v)
    for i, ti in enumerate(t):
        if ti == 0:
            covered[i] = 1
            for u in edges[i]:
                if not assim[u]:
                    assim[u] = 1
                    stack.append(u)
    while stack:
        v = stack.pop()
        for j in incidence[v]:
            count[j] += 1
            if not covered[j] and count[j] >= t[j]:
                covered[j] = 1
                for u in edges[j]:
                    if not assim[u]:
                        assim[u] = 1
                        stack.append(u)
    return assim, covered


def _reference_propagate(graph, core, thresholds=None):
    cs = _check_core(graph, core)
    t = resolve_thresholds(graph, thresholds)
    edges = graph.edges
    assim = bytearray(graph.n)
    for v in cs:
        assim[v] = 1
    count = [0] * graph.m
    covered = [False] * graph.m
    initially = []
    pending = []
    for i, e in enumerate(edges):
        count[i] = sum(assim[v] for v in e)
        if count[i] == len(e):
            covered[i] = True
            initially.append(i)
        elif count[i] >= t[i]:
            pending.append(i)

    depth = [-1] * graph.n
    for v in cs:
        depth[v] = 0
    credit = [-1] * graph.n
    layers = []

    while pending:
        layer = tuple(sorted(pending))
        layers.append(layer)
        r = len(layers)
        credited = {}  # new vertex -> smallest same-layer edge
        for e_idx in layer:
            covered[e_idx] = True
            for u in edges[e_idx]:
                if not assim[u] and u not in credited:
                    credited[u] = e_idx
        for u, e_idx in credited.items():
            assim[u] = 1
            depth[u] = r
            credit[u] = e_idx
        nxt = set()
        for u in credited:
            for j in graph._incidence[u]:
                count[j] += 1
                if not covered[j] and count[j] >= t[j]:
                    nxt.add(j)
        pending = nxt

    uncovered = tuple(i for i in range(graph.m) if not covered[i])
    verdict = not uncovered and not _isolated_outside(graph, cs)
    return PropagationTrace(
        verdict=verdict,
        core=cs,
        layers=layers,
        initially_covered=tuple(initially),
        depth=depth,
        credit=credit,
        uncovered=uncovered,
    )


def _reference_case(rng):
    """A messy instance, a random valid threshold list (or the default)
    and a random core."""
    g = messy_instance(rng)
    t = None
    if rng.random() < 0.6:
        t = [rng.randint(0, len(e) - 1) for e in g.edges]
    core = {v for v in range(g.n) if rng.random() < rng.choice((0.2, 0.5, 0.8))}
    return g, t, core


def test_single_engine_matches_both_replaced_engines():
    cases = [_reference_case(random.Random(4_000_037 + s)) for s in range(400)]
    assert sum(any(len(e) == 1 for e in g.edges) for g, _, _ in cases) >= 50
    assert sum(len(set(g.edges)) < g.m for g, _, _ in cases) >= 50
    assert sum(any(not ix for ix in g._incidence) for g, _, _ in cases) >= 50
    verdicts = set()
    for g, t, core in cases:
        trace = propagate(g, core, t)
        assert trace == _reference_propagate(g, core, t)
        assert is_core(g, core, t) == _reference_is_core(g, core, t) == trace.verdict
        assert assimilated_closure(g, core, t) == _reference_closure(g, core, t)
        verdicts.add(trace.verdict)
    assert verdicts == {True, False}


def _radii_case(rng, size):
    """A messy instance, or the one with no vertices, a random valid
    threshold list (or the default), and ``size`` random seed sets, the
    first of them emptied on about a third of the instances."""
    g, t, _ = _reference_case(rng)
    if rng.random() < 0.02:
        g, t = Hypergraph(0, []), None
    cores = [rng.sample(range(g.n), rng.randint(0, g.n)) for _ in range(size)]
    if cores and rng.random() < 1 / 3:
        cores[0] = []
    return g, t, cores


def test_radii_match_per_core_propagate():
    """One bit-parallel run of the rounds scores each seed set of a batch
    as its own ``propagate`` trace does: the radius of a core, None for a
    non-core, over batch sizes from 1 to above the oracle's batch bound."""
    rng = random.Random(4_100_003)
    sizes = [rng.randint(1, 40) for _ in range(2000)] + [1, 2, 63, 64, 65, 4097, 4200]
    cases = [_radii_case(rng, size) for size in sizes]
    assert sum(g.n == 0 for g, _, _ in cases) >= 20
    assert sum(any(len(e) == 1 for e in g.edges) for g, _, _ in cases) >= 1000
    assert sum(len(set(g.edges)) < g.m for g, _, _ in cases) >= 800
    assert sum(any(not ix for ix in g._incidence) for g, _, _ in cases) >= 1000
    assert sum(t is not None and 0 in t for g, t, _ in cases) >= 700
    assert sum([] in cores for _, _, cores in cases) >= 1000
    mixed = silent = 0
    for g, thresholds, cores in cases:
        traces = [propagate(g, core, thresholds) for core in cores]
        want = [trace.radius if trace.verdict else None for trace in traces]
        got = propagation._radii(g, cores, resolve_thresholds(g, thresholds))
        assert got == want, (g.n, g.edges, thresholds, cores)
        mixed += None in want and any(r is not None for r in want)
        # the last round of a core fired edges but activated nothing
        silent += any(
            trace.verdict and max(trace.depth, default=0) < trace.radius for trace in traces
        )
    assert mixed >= 1000 and silent >= 100, (mixed, silent)


def _absorbed(graph, state, seeds):
    """A copy of the closure ``state`` extended by ``seeds``."""
    active, need, left = state
    active, need = active[:], need[:]
    left = _absorb(graph, active, need, left, seeds)
    return active, need, left


def test_absorb_matches_rounds_and_stack_closure():
    """The closure ``_absorb`` reaches, from the empty set's closure and as
    the extension of a prefix's closure, is the one both other loops reach,
    the edges whose count reached their threshold are the ones whose final
    count in the rounds meets it, those the rounds fired or found inside
    the core, and its ``need`` and ``left`` describe it."""
    cases = [_reference_case(random.Random(4_200_013 + s)) for s in range(400)]
    assert sum(any(len(e) == 1 for e in g.edges) for g, _, _ in cases) >= 50
    assert sum(t is not None and any(t[j] == 0 < len(e) - 1 for j, e in enumerate(g.edges))
               for g, t, _ in cases) >= 100
    closed = 0
    for g, thresholds, core in cases:
        t = resolve_thresholds(g, thresholds)
        seeds = sorted(core)
        cut = len(seeds) // 2
        base = _base_state(g, t)
        before = (base[0][:], base[1][:], base[2])
        prefix = _absorbed(g, base, seeds[:cut])
        states = [
            _absorbed(g, base, seeds),
            _absorbed(g, prefix, seeds[cut:]),
            _absorbed(g, prefix, reversed(seeds)),
        ]
        # extending copies leaves the states extended from as they were
        assert base == before
        assim, covered = _closure(g, core, t)
        # an edge fired, or lies inside the core, iff its count met t
        fired = bytearray(c >= tj for c, tj in zip(_spread(g, core, t)[4], t))
        for active, need, left in states:
            assert active == assim, (g.edges, thresholds, core)
            assert {v for v in range(g.n) if active[v]} == assimilated_closure(g, core, t)
            assert need == [t[j] - sum(active[v] for v in e) for j, e in enumerate(g.edges)]
            reached = bytearray(c <= 0 for c in need)
            assert reached == fired == covered, (g.edges, thresholds, core)
            assert left == active.count(0)
        closed += not states[0][2]
    assert 50 <= closed <= 350, closed


# ---------------------------------------------------------------------------
# The prefix walker


def _cores_case(rng):
    """A messy instance, thresholds resolved from a random list (or the
    default), a non-empty seed set, and items: some of the other vertices,
    in random order."""
    g, thresholds, _ = _reference_case(rng)
    seeds = rng.sample(range(g.n), rng.randint(1, max(1, g.n // 3)))
    others = [v for v in range(g.n) if v not in seeds]
    items = rng.sample(others, rng.randint(0, len(others)))
    return g, resolve_thresholds(g, thresholds), seeds, items


def _cores_reference(g, t, seeds, items, k, minimal, part, parts, shadows=True):
    """What ``_cores`` yields and the vertices it absorbs, in order, from
    the recursive walk of ``reference_walk`` with closures by the round
    loop: the closure of a prefix is the one ``assimilated_closure`` finds
    from the seeds and the prefix's items."""
    closures = {}

    def closure(prefix):
        if prefix not in closures:
            closures[prefix] = assimilated_closure(g, [*seeds, *(items[i] for i in prefix)], t)
        return closures[prefix]

    extended = []
    yielded = list(
        reference_walk.walk(
            len(items), k, items.__getitem__, closure, g.n, extended, minimal, part, parts, shadows
        )
    )
    return yielded, extended


def test_cores_match_turns_at_prefixes(monkeypatch):
    """On random instances with size-1 edges, zero thresholds, vertices in
    no edge and non-empty seeds, for every ``k`` up to ``len(items) + 2``
    and 1-4 parts: ``_cores`` yields the combinations whose vertices, with
    the seeds, ``is_core`` accepts, less, with ``minimal``, those holding
    an item already in its prefix's closure.  The parts' yields are
    disjoint and their union is the serial yield.  Without ``minimal``,
    part ``p`` yields the serial leaves under the completable prefixes of
    ``max(k - 3, 0) + 1`` items whose lexicographic number is ``p`` mod
    the parts.  ``_absorb`` runs once for each prefix extended by an
    inactive vertex, except under a shadow, and the base state is left as
    it was.  The shadows prune extensions without changing a yield."""
    cases = [_cores_case(random.Random(4_400_021 + s)) for s in range(150)]
    assert sum(any(len(e) == 1 for e in g.edges) for g, _, _, _ in cases) >= 20
    assert sum(0 in t for _, t, _, _ in cases) >= 50
    assert sum(any(not ix for ix in g._incidence) for g, _, _, _ in cases) >= 20
    absorbed = []

    def recording_absorb(graph, active, need, left, seeds):
        absorbed.append(tuple(seeds))
        return absorb(graph, active, need, left, seeds)

    absorb = propagation._absorb
    yielded = cut = kept = split = shaded = 0
    for g, t, seeds, items in cases:
        base = _base_state(g, t, seeds)
        before = (base[0][:], base[1][:], base[2])
        n = len(items)
        for k in range(n + 3):
            leaves = list(itertools.combinations(range(n), k))
            cores = [c for c in leaves if is_core(g, {*seeds, *(items[i] for i in c)}, t)]
            s = max(k - 3, 0)
            prefixes = [p for p in itertools.combinations(range(n), s + 1) if p[-1] <= n - k + s]
            number = {p: i for i, p in enumerate(prefixes)}
            turn = (lambda c: number[c[: s + 1]]) if k else (lambda c: 0)
            for minimal in (False, True):
                for parts in range(1, 5):
                    got = []
                    for part in range(parts):
                        absorbed.clear()
                        with monkeypatch.context() as patch:
                            patch.setattr(propagation, "_absorb", recording_absorb)
                            got.append(list(_cores(g, base, items, k, minimal, part, parts)))
                        expected = _cores_reference(g, t, seeds, items, k, minimal, part, parts)
                        assert got[-1] == expected[0], (g.edges, t, seeds, items, k, minimal)
                        assert absorbed == [(v,) for v in expected[1]]
                        unshaded = _cores_reference(
                            g, t, seeds, items, k, minimal, part, parts, shadows=False
                        )
                        assert unshaded[0] == expected[0]
                        shaded += len(absorbed) < len(unshaded[1])
                        if not minimal:
                            assert got[-1] == [c for c in cores if turn(c) % parts == part]
                            if parts == 1:
                                reached = {c[: d + 1] for c in leaves for d in range(k)}
                                kept += len(absorbed) < len(reached)
                    if parts == 1:
                        serial = got[0]
                    assert sorted(itertools.chain(*got)) == serial
                    assert sum(map(len, got)) == len(serial)
                    split += k > 3 and sum(map(bool, got)) > 1
                if minimal:
                    cut += len(serial) < len(cores)
                yielded += len(serial)
        assert base == before
    # split counts the walks with k > 3 whose yield falls to two or more parts,
    # shaded the part walks that a shadow spared an extension
    assert yielded >= 300 and cut >= 50 and kept >= 200 and split >= 50 and shaded >= 300, (
        yielded, cut, kept, split, shaded
    )


def _minimal_cores(g, t, items, k):
    """The ``k``-combinations of ``range(len(items))`` whose vertices
    ``is_core`` accepts and in which no item's vertex lies in the closure
    of the items before it."""
    return [
        c
        for c in itertools.combinations(range(len(items)), k)
        if is_core(g, [items[i] for i in c], t)
        and not any(items[x] in assimilated_closure(g, [items[i] for i in c[:d]], t)
                    for d, x in enumerate(c))
    ]


def test_cores_passed_over_do_not_shadow():
    """Above the least core size, ``minimal`` passes over cores, so a
    subtree that yields nothing may still hold cores and must not shadow
    its siblings.  On ``[(0, 1, 2), (0, 2)]`` vertex 0 alone is a core, so
    at ``k = 2`` the walk passes over both leaves under it; had it shadowed
    their closure, everything, it would have left out ``(1, 2)``.  On
    ``[(1, 3), (1, 2, 3), (0, 3, 4)]`` the closure of 1 holds 2 and 3, so at
    ``k = 3`` the walk passes over both at depth 1 under it, although
    ``(1, 2, 4)`` is a core, and must still yield ``(2, 3, 4)``.  On random instances, at
    every ``k`` above the least core size of the items, ``_cores`` yields
    exactly the cores with no item in its prefix's closure, also split in
    two parts; ``trapped`` counts the yields with an item in the closure of
    an earlier sibling, not passed over, under which nothing is yielded."""
    leaf = Hypergraph(3, [(0, 1, 2), (0, 2)])
    inner = Hypergraph(5, [(1, 3), (1, 2, 3), (0, 3, 4)])
    for g, k, expected in ((leaf, 2, [(1, 2)]), (inner, 3, [(0, 2, 3), (0, 2, 4), (2, 3, 4)])):
        t = default_thresholds(g)
        assert _minimal_cores(g, t, range(g.n), k) == expected
        assert list(_cores(g, _base_state(g, t), range(g.n), k, True)) == expected
    walks = trapped = 0
    for g in seeded_family(200, seed=46, n_lo=3, n_hi=7, m_cap=7, size_hi=3):
        t = default_thresholds(g)
        items = range(g.n)
        base = _base_state(g, t)
        least = next(k for k in range(g.n + 1) if _minimal_cores(g, t, items, k))
        for k in range(least + 1, g.n + 1):
            expected = _minimal_cores(g, t, items, k)
            assert list(_cores(g, base, items, k, True)) == expected, (g.edges, k)
            halves = [list(_cores(g, base, items, k, True, part, 2)) for part in range(2)]
            assert sorted(halves[0] + halves[1]) == expected
            walks += 1
            for c in expected:
                trapped += any(
                    not any(y[: d + 1] == c[:d] + (x,) for y in expected)
                    and x not in assimilated_closure(g, c[:d], t)
                    and any(i in assimilated_closure(g, c[:d] + (x,), t) for i in c[d:])
                    for d in range(k)
                    for x in range(c[d - 1] + 1 if d else 0, c[d])
                )
    assert walks >= 400 and trapped >= 100, (walks, trapped)


def test_cores_need_no_recursion_depth():
    k = sys.getrecursionlimit() + 1
    g = Hypergraph(k + 1, [])
    base = _base_state(g, [], range(k + 1))
    combos = list(_cores(g, base, range(k + 1), k))
    assert combos == list(itertools.combinations(range(k + 1), k))
