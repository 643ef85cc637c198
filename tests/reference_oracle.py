"""The oracle's minimum-core search as it was before each subset's closure
was extended from the closure of its lexicographic prefix.

``oracle_min_core`` below is kept verbatim: it decided every subset with
its own call of the public ``is_core``, in (cardinality, lexicographic)
order.  ``test_oracle.py`` compares the package's search with it.
"""

import itertools

from hypercore.hypergraph import Hypergraph, Thresholds, resolve_thresholds
from hypercore.oracle import DEFAULT_BUDGET, OracleBudget, _block_guard, _enumeration_guard
from hypercore.propagation import is_core


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
