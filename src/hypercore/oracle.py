"""Exponential-time ground truth for small instances.

The searches cross-certify the fast algorithms and the gadget compilers.
They go through the vertex subsets in (cardinality, lexicographic) order
and return what deciding every subset would: the first core of the least
size, or the best radius at a size with the first core that reaches it.
Budgets, ``spent`` and ``block`` count whole blocks of ``comb(n, k)``
subsets, as if every subset were decided.

Each subset's closure is extended from the closure of its lexicographic
prefix by the walker ``propagation._walk`` and ``propagation._absorb``:
propagation is a closure operator, so ``cl(A | B) = cl(cl(A) | B)``.  A
subset is a core when its closure is everything.  Two skips leave
subsets undecided, and neither can leave out a core:

1. **Vertices in no edge.**  No edge can activate a vertex in no edge, so
   every core holds the set ``F`` of them.  The search of block ``k``
   absorbs ``F`` into the state of the empty prefix and walks the
   ``(k - |F|)``-subsets of the other vertices; no ``k``-subset is a core
   when ``k < |F|``.  The order is the same: for two sorted sets of equal
   size, the first position where they differ holds the smallest element
   of their symmetric difference, which lies in the set that comes
   first, and adding ``F``, disjoint from both, leaves that difference
   unchanged.  So the cores come in the same order, with the same
   witnesses.  This holds at every size, so every search uses it.
2. **Minimum blocks.**  Suppose no ``(k - 1)``-subset is a core.  Let a
   ``k``-subset ``S`` hold a vertex ``v`` in the closure of ``F`` and the
   vertices of ``S`` before ``v``, all of them in ``S - v``.  Then ``S``
   lies inside ``cl(S - v)``, so ``cl(S) = cl(S - v)``, which is not
   everything because ``S - v`` has ``k - 1`` vertices.  So ``S`` is not
   a core, and the walker passes over every subset that extends a prefix
   by a vertex its closure already holds.  No ``(k - 1)``-core exists in
   a block :func:`oracle_min_core` reaches, since it stops at the first
   block with a core, nor at the minimum size that the radius pass of
   :func:`oracle_min_radius_over_min_cores` scores.
   :func:`oracle_best_radius_at_size` accepts any size, so on its own it
   does not skip.

The rounds of ``propagation._spread``, which :func:`~.mincore.mincore_fpt`
scores cores with, confirm each verdict the searches return:
:func:`oracle_min_core` checks its witness with
:func:`~.propagation.is_core`, and the radius pass scores each core with
``_core_radius``; a disagreement raises ``RuntimeError``.  The
independent check of the round engine is :func:`reference_is_core`, a
one-edge-at-a-time activation rescan sharing no code with it, which
acceptance criterion 1 compares with ``is_core`` on every subset of 200
random instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .hypergraph import Hypergraph, Thresholds, resolve_thresholds
from .propagation import _absorb, _base_state, _core_radius, _walk, is_core


class BudgetExceededError(RuntimeError):
    """The instance is too large for exhaustive certification.

    A refusal by the subset budget of a core search carries ``spent``, the
    subsets already enumerated, and ``block``, the number of subsets in the
    cardinality block it refused to start; every other refusal sets both
    to None.
    """

    def __init__(
        self, message: str, spent: Optional[int] = None, block: Optional[int] = None
    ):
        super().__init__(message)
        self.spent = spent
        self.block = block


@dataclass(frozen=True)
class OracleBudget:
    """Caps for the exhaustive searches, checked before enumerating.

    ``max_vertices`` bounds the vertex count; ``max_subsets`` bounds the
    number of candidate subsets the search may visit (checked one
    cardinality block ahead, so a run never starts a block it cannot
    finish).  A cap that is not a non-negative integer raises
    ``ValueError``.
    """

    max_vertices: int = 18
    max_subsets: int = 2_000_000

    def __post_init__(self):
        for cap in (self.max_vertices, self.max_subsets):
            if not isinstance(cap, int) or cap < 0:
                raise ValueError(f"oracle budget caps must be non-negative integers: {self}")


DEFAULT_BUDGET = OracleBudget()
# Radius certification enumerates every minimum core, so it gets a tighter default.
DEFAULT_RADIUS_BUDGET = OracleBudget(max_vertices=12)


def reference_is_core(graph: Hypergraph, core: Iterable[int]) -> bool:
    """Reference activation check under default thresholds.

    Follows the plain sequential procedure: drop edges inside the seed
    set, then repeatedly pick any single edge with exactly one missing
    vertex, absorb it, and drop newly filled edges.  Rescans the edge list
    every iteration.  Vertices in no edge must be seeds, as everywhere
    else in this package.
    """
    c = set(core)
    for v in c:
        if not 0 <= v < graph.n:
            raise ValueError(f"core vertex {v} outside [0, {graph.n})")
    if any(not graph.incident_edges(v) and v not in c for v in range(graph.n)):
        return False
    remaining = [set(e) for e in graph.edges if not set(e) <= c]
    while remaining:
        fired = None
        for e in remaining:
            if len(e & c) == len(e) - 1:
                fired = e
                break
        if fired is None:
            return False
        c |= fired
        remaining = [e for e in remaining if e & c != e]
    return True


def _enumeration_guard(n: int, budget: OracleBudget) -> None:
    if n > budget.max_vertices:
        raise BudgetExceededError(
            f"{n} vertices exceed the oracle budget of {budget.max_vertices}"
        )


def _power_guard(k: int, budget: OracleBudget, message: str) -> None:
    """Refuse ``2**k`` candidates above ``max_subsets`` without building
    ``2**k``: for a non-negative cap the two tests agree."""
    if k >= budget.max_subsets.bit_length():
        raise BudgetExceededError(message)


def _block_guard(spent: int, n: int, k: int, budget: OracleBudget) -> int:
    block = math.comb(n, k)
    if spent + block > budget.max_subsets:
        raise BudgetExceededError(
            f"enumerating {spent + block} subsets exceeds the budget of"
            f" {budget.max_subsets}",
            spent=spent,
            block=block,
        )
    return spent + block


def _cores(graph: Hypergraph, k: int, t: Sequence[int], minimal: bool = False):
    """Yield the ``k``-subsets of ``[0, n)`` that are cores under ``t``, in
    lexicographic order.

    The vertices in no edge are in every core: they are absorbed into the
    base state, and the walk picks the rest of each subset from the other
    vertices, none when ``k`` is below their count (skip 1 of the module
    docstring).  A vertex already in its prefix's closure changes nothing;
    any other extends a copy of the prefix's state.  With ``minimal``,
    which needs no ``(k - 1)``-core to exist, a vertex already in the
    closure passes over every subset extending the prefix by it (skip 2).
    """
    incidence = graph._incidence
    free = [v for v in range(graph.n) if not incidence[v]]
    rest = [v for v in range(graph.n) if incidence[v]]
    active, count, fired, left = _base_state(graph, t)
    left = _absorb(graph, t, active, count, fired, left, free)

    def extend(state, i):
        active, count, fired, left = state
        v = rest[i]
        if active[v]:
            return None if minimal else state
        active, count, fired = active[:], count[:], fired[:]
        return active, count, fired, _absorb(graph, t, active, count, fired, left, (v,))

    base = (active, count, fired, left)
    for combo in _walk(len(rest), k - len(free), base, extend):
        yield tuple(sorted(free + [rest[i] for i in combo]))


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
        # no smaller block held a core, so skip 2 holds
        for combo in _cores(graph, k, t, True):
            if not is_core(graph, combo, t):
                raise RuntimeError("closure and rounds disagree")
            return k, frozenset(combo)
    raise RuntimeError("the full vertex set is always a core")


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
    # no core is smaller than size, so the radius pass may skip (skip 2)
    best = oracle_best_radius_at_size(graph, size, thresholds, budget, True)
    if best is None:
        raise RuntimeError("a minimum core size always has a core")
    return size, best[0], best[1]


def oracle_best_radius_at_size(
    graph: Hypergraph,
    size: int,
    thresholds: Thresholds = None,
    budget: OracleBudget = DEFAULT_RADIUS_BUDGET,
    _minimal: bool = False,
) -> Optional[tuple[int, frozenset[int]]]:
    """Minimum radius over all cores of exactly ``size`` vertices, if any.

    ``_minimal`` is private: a caller that knows no core has fewer than
    ``size`` vertices sets it to skip subsets that cannot be cores.
    """
    _enumeration_guard(graph.n, budget)
    t = resolve_thresholds(graph, thresholds)
    _block_guard(0, graph.n, size, budget)
    best: Optional[tuple[int, frozenset[int]]] = None
    for combo in _cores(graph, size, t, _minimal):
        r = _core_radius(graph, combo, t)
        if r is None:
            raise RuntimeError("closure and rounds disagree")
        if best is None or r < best[0]:
            best = (r, frozenset(combo))
    return best


def oracle_setcover(instance, budget: OracleBudget = DEFAULT_BUDGET):
    """Exact minimum set cover by subset enumeration over set indices.

    Returns ``(size, witness)`` with the lexicographically first optimal
    index tuple.
    """
    k = len(instance.sets)
    _power_guard(k, budget, f"2^{k} covers exceed the subset budget")
    universe = frozenset(range(instance.universe_size))
    for size in range(k + 1):
        for combo in itertools.combinations(range(k), size):
            union: set[int] = set()
            for i in combo:
                union |= instance.sets[i]
            if union >= universe:
                return size, combo
    raise RuntimeError("instance invariant guarantees the full family covers")


def oracle_minrep(instance, budget: OracleBudget = DEFAULT_BUDGET):
    """Exact minimum node pick covering every super-edge.

    Nodes are numbered ``0..|A|-1`` for the left side followed by
    ``|A|..|A|+|B|-1`` for the right side.  Returns ``(size, witness)``.
    """
    total = instance.num_a + instance.num_b
    _power_guard(total, budget, f"2^{total} picks exceed the subset budget")
    pairs = tuple(instance.covering_pairs().values())
    for size in range(total + 1):
        for combo in itertools.combinations(range(total), size):
            chosen = set(combo)
            if all(any(a in chosen and b in chosen for a, b in ps) for ps in pairs):
                return size, frozenset(combo)
    raise RuntimeError("picking every node covers all super-edges")


def oracle_sat(formula, budget: OracleBudget = DEFAULT_BUDGET):
    """Exhaustive satisfiability check; returns ``(bool, witness_or_None)``.

    A witness maps variable index (1-based, as in the clause literals) to
    a boolean.
    """
    k = formula.num_vars
    _power_guard(k, budget, f"2^{k} assignments exceed the subset budget")
    for bits in itertools.product((False, True), repeat=k):
        ok = True
        for clause in formula.clauses:
            if not any(bits[abs(lit) - 1] == (lit > 0) for lit in clause):
                ok = False
                break
        if ok:
            return True, {i + 1: b for i, b in enumerate(bits)}
    return False, None
