"""Exponential-time ground truth for small instances.

The searches cross-certify the fast algorithms and the gadget compilers.
They go through the vertex subsets in (cardinality, lexicographic) order
and return what deciding every subset would: the first core of the least
size, or the best radius at a size with the first core that reaches it.
Budgets, ``spent`` and ``block`` count whole blocks of ``comb(n, k)``
subsets, as if every subset were decided.

Each subset's closure is extended from the closure of its lexicographic
prefix by the walker ``propagation._cores``: propagation is a closure
operator, so ``cl(A | B) = cl(cl(A) | B)``.  A subset is a core when its
closure is everything.  Three skips leave subsets undecided, and none
can leave out a core:

1. **Vertices in no edge.**  No edge can activate a vertex in no edge, so
   every core holds the set ``F`` of them.  Each search builds the
   closure of ``F`` once, as the state of the empty prefix, and walks
   block ``k`` as the ``(k - |F|)``-subsets of the other vertices from
   it; no ``k``-subset is a core when ``k < |F|``, so those blocks are
   charged to the budget and not walked.  The order is the same: for
   two sorted sets of equal size, the first position where they differ
   holds the smallest element of their symmetric difference, which lies
   in the set that comes first, and adding ``F``, disjoint from both,
   leaves that difference unchanged.  So the cores come in the same
   order, with the same witnesses.  This holds at every size, so every
   search uses it.
2. **Minimum blocks.**  Suppose no ``(k - 1)``-subset is a core.  Let a
   ``k``-subset ``S`` hold a vertex ``v`` in the closure of ``F`` and the
   vertices of ``S`` before ``v``, all of them in ``S - v``.  Then ``S``
   lies inside ``cl(S - v)``, so ``cl(S) = cl(S - v)``, which is not
   everything because ``S - v`` has ``k - 1`` vertices.  So ``S`` is not
   a core, and the walker passes over every subset that extends a prefix
   by a vertex its closure already holds.  No ``(k - 1)``-core exists in
   a block that :func:`oracle_min_core` or
   :func:`oracle_min_radius_over_min_cores` walks: both walk the blocks
   in order up to the first with a core, which the radius search then
   walks on to its end, scoring each core as it comes.
   :func:`oracle_best_radius_at_size` accepts any size and does not skip.
3. **Shadows.**  Let ``P`` be a prefix, ``x < y`` two vertices extending
   it, and ``y`` in ``cl(P + x)``, and suppose no subset of the block
   under ``P + x`` is a core.  A subset ``S`` of the block made of ``P``
   and vertices after ``x``, ``y`` among them, has ``S - y + x`` in the
   block, under ``P + x``, so not a core; its closure holds ``P + x``,
   hence ``y``, hence ``S``, so ``cl(S)`` lies inside it and ``S`` is not
   a core.  So once the walker has finished ``P + x`` with no core, it
   passes over every later vertex in ``cl(P + x)``, at that depth and at
   every deeper one under the later prefixes.  It counts a finished
   prefix as holding no core only when it yielded nothing and passed
   over, by skip 2, nothing that could be one, so this skip needs
   nothing of the block, and every search uses it.

Synchronous rounds confirm each verdict the searches return.
:func:`oracle_min_core` checks its witness with
:func:`~.propagation.is_core`, the rounds of ``propagation._spread``.  The
two radius searches, ``--min-radius`` among them, score every core they
walk, in walk order, with ``propagation._radii``: one run of the same
rounds for a batch of up to ``_BATCH`` cores, one bit per core in each
vertex's and edge's mask.  So each core they return is confirmed, and a
core the rounds do not complete raises ``RuntimeError``.  Each engine has
its independent check.  :func:`reference_is_core`, a one-edge-at-a-time
activation rescan sharing no code with ``_spread``, is compared with
``is_core`` on every subset of 200 random instances (acceptance criterion
1).  ``_radii``, which shares no code with ``_spread``, is compared with
one ``propagate`` trace per core, radius and verdict, on over 2,000
instances, with batches from one core to more than ``_BATCH``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .hypergraph import Hypergraph, Thresholds, resolve_thresholds
from .propagation import _base_state, _cores, _radii, is_core


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

    ``max_vertices`` bounds the vertex count of the core searches;
    ``max_subsets`` bounds the number of candidates a search may visit.
    The core searches check it one cardinality block ahead, so a run never
    starts a block it cannot finish; the set cover, MinRep and SAT oracles
    refuse up front when their ``2**k`` candidates exceed it.  A cap that
    is not a non-negative integer, a bool among them, raises
    ``ValueError``.
    """

    max_vertices: int = 18
    max_subsets: int = 2_000_000

    def __post_init__(self):
        for cap in (self.max_vertices, self.max_subsets):
            if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
                raise ValueError(f"oracle budget caps must be non-negative integers: {self}")


DEFAULT_BUDGET = OracleBudget()
# Radius certification enumerates every minimum core, so it gets a tighter default.
DEFAULT_RADIUS_BUDGET = OracleBudget(max_vertices=12)
# Cores scored per run of the rounds (``_least_radius``): it bounds the
# cores held at once and keeps each mask at 64 machine words.
_BATCH = 4096


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


class _Search:
    """One core search's set-up and budget ledger, built once per query.

    It checks the vertex cap, resolves the thresholds, splits the vertices
    in no edge, ``free``, from the ``rest`` and builds the base state, the
    closure of ``free`` (skip 1 of the module docstring).  ``spent`` counts
    the subsets of the blocks charged so far.
    """

    def __init__(self, graph: Hypergraph, thresholds: Thresholds, budget: OracleBudget):
        _enumeration_guard(graph.n, budget)
        self.graph, self.budget, self.spent = graph, budget, 0
        self.t = resolve_thresholds(graph, thresholds)
        self.free = [v for v in range(graph.n) if not graph._incidence[v]]
        self.rest = [v for v in range(graph.n) if graph._incidence[v]]
        self.base = _base_state(graph, self.t, self.free)

    def cores(self, k: int, minimal: bool = False):
        """Charge block ``k`` to the budget, then yield its cores in
        lexicographic order.

        The walk picks the rest of each subset from ``rest`` and yields
        nothing when ``k`` is below ``len(free)``.  With ``minimal``, which needs no
        ``(k - 1)``-core to exist, it passes over every subset extending a
        prefix by a vertex the prefix's closure holds (skip 2).
        """
        self.spent = _block_guard(self.spent, self.graph.n, k, self.budget)
        for combo in _cores(self.graph, self.base, self.rest, k - len(self.free), minimal):
            yield tuple(sorted(self.free + [self.rest[i] for i in combo]))

    def least(self):
        """The least size with a core and an iterator over the cores of
        that size, from the first on, charging every block up to it."""
        for k in range(self.graph.n + 1):
            cores = self.cores(k, True)  # no smaller block holds a core, so skip 2 holds
            for first in cores:
                return k, itertools.chain((first,), cores)
        raise RuntimeError("the full vertex set is always a core")


def oracle_min_core(
    graph: Hypergraph,
    thresholds: Thresholds = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[int, frozenset[int]]:
    """Minimum core size with the first witness in (cardinality, lex) order."""
    search = _Search(graph, thresholds, budget)
    size, cores = search.least()
    witness = next(cores)
    if not is_core(graph, witness, search.t):
        raise RuntimeError("closure and rounds disagree")
    return size, frozenset(witness)


def oracle_min_radius_over_min_cores(
    graph: Hypergraph,
    thresholds: Thresholds = None,
    budget: OracleBudget = DEFAULT_RADIUS_BUDGET,
) -> tuple[int, int, frozenset[int]]:
    """Enumerate every minimum-size core and return the best radius.

    Returns ``(min core size, min radius, witness)`` where the witness is
    the lexicographically first minimum core achieving the radius.
    """
    search = _Search(graph, thresholds, budget)
    size, cores = search.least()
    best = _least_radius(graph, cores, search.t)
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
    search = _Search(graph, thresholds, budget)
    return _least_radius(graph, search.cores(size), search.t)


def _least_radius(graph: Hypergraph, cores, t: Sequence[int]):
    """The least radius over ``cores`` with the first core reaching it.

    The cores are scored in walk order, in batches of at most ``_BATCH``,
    each by one run of ``propagation._radii``.  Every core is scored, one
    the rounds do not complete raises ``RuntimeError``, and only a smaller
    radius replaces the best, so a tie keeps the first core, across
    batches as within one.
    """
    best = None
    cores = iter(cores)
    while batch := list(itertools.islice(cores, _BATCH)):
        for combo, r in zip(batch, _radii(graph, batch, t)):
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
