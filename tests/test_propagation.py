"""Activation semantics: verdicts, layers, radius, threshold generalization."""

import collections
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
from hypercore.propagation import _absorb, _base_state, _check_core, _walk
from conftest import all_subsets, messy_instance, seeded_family


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


def _absorbed(graph, t, state, seeds):
    """A copy of the closure ``state`` extended by ``seeds``."""
    active, count, fired, left = state
    active, count, fired = active[:], count[:], fired[:]
    left = _absorb(graph, t, active, count, fired, left, seeds)
    return active, count, fired, left


def test_absorb_matches_rounds_and_stack_closure():
    """The closure ``_absorb`` reaches, from the empty set's closure and as
    the extension of a prefix's closure, is the one both other loops reach,
    and its counts and ``left`` describe it."""
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
        before = (base[0][:], base[1][:], base[2][:], base[3])
        prefix = _absorbed(g, t, base, seeds[:cut])
        states = [
            _absorbed(g, t, base, seeds),
            _absorbed(g, t, prefix, seeds[cut:]),
            _absorbed(g, t, prefix, reversed(seeds)),
        ]
        # extending copies leaves the states extended from as they were
        assert base == before
        assim, covered = _closure(g, core, t)
        for active, count, fired, left in states:
            assert active == assim and fired == covered, (g.edges, thresholds, core)
            assert {v for v in range(g.n) if active[v]} == assimilated_closure(g, core, t)
            assert count == [sum(active[v] for v in e) for e in g.edges]
            assert left == active.count(0) + fired.count(0)
        closed += not states[0][3]
    assert 50 <= closed <= 350, closed


# ---------------------------------------------------------------------------
# The prefix walker


def _refusals(seed):
    """A fixed random rule: whether extending a state that has kept the
    items ``kept`` by item ``x`` changes nothing."""

    def refuses(kept, x):
        return random.Random(f"{seed} {kept} {x}").random() < 0.3

    return refuses


def _walked(n, k, part, parts, refuses, skip):
    """What ``_walk`` yields and which extensions it makes, with states
    ``(kept, left)`` whose ``left`` is the parity of the items kept.  A
    refused item returns the prefix's state, or None with ``skip``."""
    calls = collections.Counter()

    def extend(state, x):
        calls[state[0], x] += 1
        if refuses(state[0], x):
            return None if skip else state
        kept = state[0] + (x,)
        return kept, len(kept) % 2

    return list(_walk(n, k, ((), 0), extend, part, parts)), calls


def _walked_reference(n, k, part, parts, refuses, skip):
    """The same from the strided leaves of ``combinations``: each prefix of
    a leaf on the way to it is extended once, a refused item keeps its
    prefix's state, and with ``skip`` it cuts the leaf off instead."""
    yielded = []
    prefixes = {}
    for combo in itertools.islice(itertools.combinations(range(n), k), part, None, parts):
        kept = ()
        for i, x in enumerate(combo):
            prefixes[combo[: i + 1]] = (kept, x)
            if not refuses(kept, x):
                kept += (x,)
            elif skip:
                break
        else:
            if not len(kept) % 2:
                yielded.append(combo)
    return yielded, collections.Counter(prefixes.values())


def test_walk_matches_strided_combinations():
    """Every ``n <= 9``, every ``k`` up to ``n + 2`` and 1-4 strided parts,
    with no refusals, with refusals that keep the prefix's state, and with
    refusals that skip their subtree."""
    refused = skipped = 0
    for n in range(10):
        for k in range(n + 3):
            for parts in range(1, 5):
                for part in range(parts):
                    leaves = list(
                        itertools.islice(itertools.combinations(range(n), k), part, None, parts)
                    )
                    got = list(_walk(n, k, (0,), lambda state, x: state, part, parts))
                    assert got == leaves, (n, k, part, parts)
                    for skip in (False, True):
                        rule = _refusals(n * 1000 + k * 10 + part)
                        walked = _walked(n, k, part, parts, rule, skip)
                        assert walked == _walked_reference(n, k, part, parts, rule, skip)
                        refused += len(walked[0]) < len(leaves)
                        skipped += skip and walked != _walked(n, k, part, parts, rule, False)
                    assert _walked(n, k, part, parts, lambda kept, x: False, True)[0] == [
                        c for c in leaves if not len(c) % 2
                    ]
    assert refused >= 100 and skipped >= 100, (refused, skipped)


def test_walk_needs_no_recursion_depth():
    k = sys.getrecursionlimit() + 1
    combos = list(_walk(k + 1, k, (0,), lambda state, x: state))
    assert combos == list(itertools.combinations(range(k + 1), k))

