"""The oracle's core searches as they were before they skipped subsets.

``oracle_min_core`` below is kept verbatim from before each subset's
closure was extended from the closure of its lexicographic prefix: it
decided every subset with its own call of the public ``is_core``, in
(cardinality, lexicographic) order.  ``_cores``,
``oracle_min_radius_over_min_cores`` and ``oracle_best_radius_at_size``
are kept verbatim from before the walker and its two skips: the radius
pass decided every subset of its block, each closure extended from its
prefix's.  Since then one call changed: ``_cores`` holds the closure
state as ``(active, need, left)`` and calls ``_absorb`` without the
thresholds, where it held ``(active, count, fired, left)`` before.
``test_oracle.py`` compares the package's searches with these.
"""

import itertools
from typing import Optional, Sequence

from hypercore.hypergraph import Hypergraph, Thresholds, resolve_thresholds
from hypercore.oracle import (
    DEFAULT_BUDGET,
    DEFAULT_RADIUS_BUDGET,
    OracleBudget,
    _block_guard,
    _enumeration_guard,
)
from hypercore.propagation import _absorb, _base_state, _core_radius, is_core


def oracle_min_core(
    graph: Hypergraph,
    thresholds: Thresholds = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[int, frozenset[int]]:
    """Minimum core size with the first witness in (cardinality, lex) order."""
    _enumeration_guard(graph.n, budget)
    t = resolve_thresholds(graph, thresholds)
    spent = 0
    for k in range(graph.n + 1):
        spent = _block_guard(spent, graph.n, k, budget)
        for combo in itertools.combinations(range(graph.n), k):
            if is_core(graph, combo, t):
                return k, frozenset(combo)
    raise RuntimeError("the full vertex set is always a core")


def _cores(graph: Hypergraph, k: int, t: Sequence[int]):
    """Yield the ``k``-subsets of ``[0, n)`` that are cores under ``t``, in
    lexicographic order.

    ``states[d]`` is the closure state (:func:`~.propagation._absorb`) of
    the first ``d`` vertices of the current subset, and each subset reuses
    the states of the prefix it shares with the one before.  A vertex
    already in the prefix's closure leaves the state as it is; any other
    extends a copy, so the prefix's state stays intact for the subsets
    after it.
    """
    states = [_base_state(graph, t)]
    prev: tuple[int, ...] = ()
    for combo in itertools.combinations(range(graph.n), k):
        shared = 0
        for x, y in zip(prev, combo):
            if x != y:
                break
            shared += 1
        del states[shared + 1 :]
        active, need, left = states[-1]
        for v in combo[shared:]:
            if not active[v]:
                active, need = active[:], need[:]
                left = _absorb(graph, active, need, left, (v,))
            states.append((active, need, left))
        prev = combo
        if not left:
            yield combo


def oracle_min_radius_over_min_cores(
    graph: Hypergraph,
    thresholds: Thresholds = None,
    budget: OracleBudget = DEFAULT_RADIUS_BUDGET,
) -> tuple[int, int, frozenset[int]]:
    """Enumerate every minimum-size core and return the best radius.

    Returns ``(min core size, min radius, witness)`` where the witness is
    the lexicographically first minimum core achieving the radius.
    """
    size, _ = oracle_min_core(graph, thresholds, budget)
    best = oracle_best_radius_at_size(graph, size, thresholds, budget)
    if best is None:
        raise RuntimeError("a minimum core size always has a core")
    return size, best[0], best[1]


def oracle_best_radius_at_size(
    graph: Hypergraph,
    size: int,
    thresholds: Thresholds = None,
    budget: OracleBudget = DEFAULT_RADIUS_BUDGET,
) -> Optional[tuple[int, frozenset[int]]]:
    """Minimum radius over all cores of exactly ``size`` vertices, if any."""
    _enumeration_guard(graph.n, budget)
    t = resolve_thresholds(graph, thresholds)
    _block_guard(0, graph.n, size, budget)
    best: Optional[tuple[int, frozenset[int]]] = None
    for combo in _cores(graph, size, t):
        r = _core_radius(graph, combo, t)
        if r is None:
            raise RuntimeError("closure and rounds disagree")
        if best is None or r < best[0]:
            best = (r, frozenset(combo))
    return best
