"""Seed-set propagation over hyperedges: activation check, layers, radius.

A seed set ("core") activates the instance as follows.  Every seed vertex
starts assimilated.  An edge whose assimilated-vertex count reaches its
activation threshold ``t(e)`` becomes covered and assimilates all of its
vertices.  The default threshold ``t(e) = |e| - 1`` means an edge fires as
soon as at most one of its vertices is missing.  A set is a core when this
process covers every edge and leaves no vertex inactive; vertices in no
edge can only become active by being seeds, so they must belong to the
core itself.

Two loops run the process.  ``_spread`` runs it in synchronous rounds:
layer ``L_i`` holds every still-uncovered edge whose threshold is met by
the vertices assimilated before round ``i``.  Because the firing rule is
monotone, this greedy schedule uses the fewest possible rounds, so the
number of layers is the radius of the core.  Edges fully inside the core
are covered up front and belong to no layer.  :func:`is_core` and
:func:`assimilated_closure` read the rounds of that loop directly;
:func:`propagate` returns its layers and its per-vertex ``depth`` and
``credit`` lists, as they are, in a :class:`PropagationTrace`, whose
``radius`` is the layer count.  Each public function takes its
thresholds through :func:`~.hypergraph.resolve_thresholds`, which holds
the rule.  ``_radii`` runs the same rounds for a whole batch of seed sets
at once, one bit per set in each vertex's and each edge's mask, and
returns each set's radius, or None for a non-core, as ``_core_radius``
does for one set.  The oracle scores its radius searches with it;
:func:`~.mincore.mincore_fpt`, which scores a few cores per level, keeps
``_core_radius``.

``_absorb`` computes only the closure, the set of vertices active at the
end, firing edges one at a time in stack order.  Rounds do not extend
across seed sets: a seed added later can change the round of every
vertex.  Closures do: propagation is a closure operator, so
``cl(A | B) = cl(cl(A) | B)``, and the closure of a set can be built by
extending the closure of any subset of it.

One closure loop serves both exhaustive enumerations, and ``_cores`` is
the one prefix walker behind them.  It makes the ``k``-combinations of
a list of items in lexicographic order, without recursion, and extends
one closure state per prefix depth by each item's vertex.  Closures also
prune it: when no combination under a prefix ``P + x`` is a core, no
later combination under ``P`` that holds a vertex of ``cl(P + x)`` is
one either, so the walk passes over the items in that shadow without
extending anything.  The oracle extends each vertex subset's closure
from its lexicographic prefix, and keeps the rounds for the radius, in
batches, and for confirming its witness.
:func:`~.mincore.mincore_fpt` decides each deletion of residual edges as
a core of the residual's dual (lemma 8 there), extended the same way
from its prefix's closure by one representative of each class of
closure-equivalent edges (lemma 9).  No other module reads a closure
state: they hold the ones :func:`_base_state` builds and pass them to
``_cores``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .hypergraph import Hypergraph, Thresholds, resolve_thresholds


class NotACoreError(ValueError):
    """Raised when an operation requires a core but the set is not one."""


@dataclass
class PropagationTrace:
    """Full record of one propagation run.

    ``layers`` partitions the edges covered during the rounds;
    ``initially_covered`` lists edges that were subsets of the core and
    never entered a layer.  ``depth[v]`` is the layer that assimilated
    vertex ``v``: 0 for core members, -1 for a vertex never assimilated.
    ``credit[v]`` is the edge credited with ``v``, -1 for core members and
    inactive vertices.  When two same-layer edges could both activate a
    vertex, the smallest edge index gets the credit.
    """

    verdict: bool
    core: frozenset[int]
    layers: list[tuple[int, ...]]
    initially_covered: tuple[int, ...]
    depth: list[int]
    credit: list[int]
    uncovered: tuple[int, ...] = ()

    @property
    def radius(self) -> int:
        return len(self.layers)


def _check_core(graph: Hypergraph, core: Iterable[int]) -> frozenset[int]:
    cs = frozenset(core)
    for v in cs:
        if not 0 <= v < graph.n:
            raise ValueError(f"core vertex {v} outside [0, {graph.n})")
    return cs


def _spread(graph: Hypergraph, core: Iterable[int], t: Sequence[int]):
    """Run the synchronous rounds from ``core`` under thresholds ``t``.

    ``core`` must hold distinct vertices of ``[0, n)``; it is not checked.

    Returns ``(depth, credit, layers, inside, count)``.  ``depth[v]`` is
    the round that assimilated ``v`` (0 for the core, -1 for never) and
    ``credit[v]`` the smallest-index edge of that round containing ``v``
    (-1 when no edge assimilated it).  ``layers`` holds each round's fired
    edges in ascending order, ``inside`` the edges lying inside the core,
    and ``count[j]`` edge ``j``'s assimilated vertices at the end, at
    least ``t[j]`` exactly when ``j`` fired or lies inside.
    """
    edges, incidence = graph.edges, graph._incidence
    depth = [-1] * graph.n
    credit = [-1] * graph.n
    count = [0] * graph.m
    for v in core:
        depth[v] = 0
        for j in incidence[v]:
            count[j] += 1
    inside = []
    frontier = []
    for j, e in enumerate(edges):
        if count[j] == len(e):
            inside.append(j)
        elif count[j] >= t[j]:
            frontier.append(j)
    layers: list[tuple[int, ...]] = []
    while frontier:
        frontier.sort()
        layers.append(tuple(frontier))
        r = len(layers)
        new = []
        for j in frontier:  # ascending, so the smallest edge gets the credit
            for u in edges[j]:
                if depth[u] < 0:
                    depth[u] = r
                    credit[u] = j
                    new.append(u)
        frontier = []
        for u in new:
            for j in incidence[u]:
                count[j] += 1
                # counts grow by one, so an edge meets its threshold once,
                # and one at or above it at the start fired then
                if count[j] == t[j]:
                    frontier.append(j)
    return depth, credit, layers, inside, count


def _base_state(graph: Hypergraph, t: Sequence[int], seeds: Iterable[int] = ()):
    """The closure state of ``seeds`` under thresholds ``t``, as
    ``(active, need, left)`` for :func:`_absorb`: every edge with
    ``t[j] == 0`` fires before any vertex is active, and one call absorbs
    its vertices and ``seeds``."""
    active = bytearray(graph.n)
    need = list(t)
    fired = [v for j, tj in enumerate(t) if not tj for v in graph.edges[j]]
    return active, need, _absorb(graph, active, need, graph.n, [*fired, *seeds])


def _absorb(graph: Hypergraph, active, need, left: int, seeds) -> int:
    """Extend a closure state by ``seeds`` in place; return the new ``left``.

    ``active`` marks the active vertices, ``need[j]`` is edge ``j``'s
    threshold minus its active vertices and ``left`` counts the vertices
    not yet active; all three describe one closed state, such as
    :func:`_base_state`, which the call updates.  An edge fires when its
    ``need`` reaches 0.  A seed already active changes nothing.
    Activations go one at a time, in stack order: the closure does not
    depend on the order.  ``left`` ends at 0 exactly when every vertex is
    active, that is, for a core; every edge has then fired.
    """
    edges, incidence = graph.edges, graph._incidence
    stack = []
    for v in seeds:
        if not active[v]:
            active[v] = 1
            left -= 1
            stack.append(v)
    while stack:
        for j in incidence[stack.pop()]:
            c = need[j] - 1
            need[j] = c
            # needs fall by one from a closed state, so an edge reaches 0
            # once; an edge with a zero threshold fired in the base state
            if not c:
                for u in edges[j]:
                    if not active[u]:
                        active[u] = 1
                        left -= 1
                        stack.append(u)
    return left


def _cores(
    graph: Hypergraph,
    base,
    items: Sequence[int],
    k: int,
    minimal: bool = False,
    part: int = 0,
    parts: int = 1,
):
    """Yield, in lexicographic order, the ``k``-combinations of
    ``range(len(items))`` whose closure from ``base``, extended by the
    vertices ``items[i]``, is everything.

    ``base`` is a closure state, such as :func:`_base_state` builds, and is
    left as it is.  The walk keeps one state per prefix depth, so each
    prefix's closure is extended once, by :func:`_absorb` on a copy of the
    shorter prefix's state, and every combination under the prefix starts
    from it.  An item whose vertex the prefix's closure already holds keeps
    the prefix's state; with ``minimal``, it instead passes over every
    combination that extends the prefix by it.

    Each depth keeps a shadow, the vertices of closures that rule
    combinations out.  Let ``x < y`` be items extending the prefix ``P``,
    ``y`` in ``cl(P + x)``, where no combination under ``P + x`` is a
    core.  A combination ``C`` of ``P`` and items after ``x`` that holds
    ``y`` is no core either: ``C - y + x`` is a combination under
    ``P + x``, and its closure, not everything, holds ``y`` and so
    ``cl(C)``.  So when the subtree of ``P + x`` ends with no core,
    ``cl(P + x)`` joins the shadow of its depth, which every deeper depth
    under the later items starts from, and an item whose vertex lies in
    the shadow is passed over.  A subtree counts as holding no core when
    it yielded nothing and passed over nothing that could be one: with
    ``minimal``, an item passed over below the last depth may hide a core,
    and one at the last depth does when its prefix's closure is
    everything.  A subtree that could hold a core adds no shadow, so the
    walk yields the same with or without shadows.

    Parts take turns at the prefixes of ``max(k - 3, 0) + 1`` items that
    the walk reaches: the ``i``-th, counting from 0, falls to part ``i``
    mod ``parts``, which extends it and decides every leaf under it.  A
    prefix takes its number before its item is tested, and all parts
    extend the same shorter prefixes and pass over the same subtrees, so
    they number the prefixes alike and each leaf belongs to one part.  A
    part walks whole only the subtrees of prefixes that long or longer, so
    only those add to a shadow: the shorter prefixes see none, and every
    part still walks them alike.  The loop is iterative, so ``k`` is not
    bounded by the recursion limit.
    """
    n = len(items)
    if not 0 <= k <= n:
        return
    if not k:
        if not part and not base[2]:
            yield ()
        return
    last = k - 1
    turns = max(k - 3, 0) if parts > 1 else k  # the depth where parts take turns, k for none
    low = turns if parts > 1 else 0  # the least depth whose subtrees a part walks whole
    turn = -1  # the number of the last prefix of that depth reached
    combo = [0] * k
    states = [base] * k
    shadows = [0] * k  # per depth, byte v is 1 when vertex v lies in the shadow
    clean = [True] * k  # per depth, no core could lie under the prefix so far
    d = x = 0
    while True:
        if x > n - k + d:  # too few items left after x to finish the combination
            if not d:
                return
            d -= 1
            x = combo[d] + 1
            if not clean[d + 1]:
                clean[d] = False
            elif d >= low and x <= n - k + d:  # only later items read the shadow
                shadows[d] |= int.from_bytes(states[d + 1][0], "little")
            continue
        if d == turns:
            turn += 1
            if turn % parts != part:
                x += 1
                continue
        v = items[x]
        if shadows[d] >> 8 * v & 1:
            x += 1
            continue
        state = states[d]
        active, need, left = state
        if not active[v]:
            active, need = active[:], need[:]
            state = active, need, _absorb(graph, active, need, left, (v,))
        elif minimal:
            if d < last or not left:  # the combinations passed over may be cores
                clean[d] = False
            x += 1
            continue
        combo[d] = x
        x += 1
        if d < last:
            d += 1
            states[d] = state
            shadows[d] = shadows[d - 1]
            clean[d] = True
        elif state[2]:
            if x <= n - k + d:
                shadows[d] |= int.from_bytes(state[0], "little")
        else:
            clean[d] = False
            yield tuple(combo)


def _core_radius(
    graph: Hypergraph, core: Iterable[int], t: Sequence[int]
) -> Optional[int]:
    """The radius of ``core`` under thresholds ``t``, or None when it is
    not a core: the verdict and radius of :func:`propagate`, unpacked.

    Like :func:`_spread`, it trusts ``core`` and ``t``: callers pass
    distinct in-range vertices and thresholds resolved once per search.
    """
    depth, _, layers, _, _ = _spread(graph, core, t)
    return None if -1 in depth else len(layers)


def _radii(
    graph: Hypergraph, cores: Sequence[Iterable[int]], t: Sequence[int]
) -> list[Optional[int]]:
    """:func:`_core_radius` of each of ``cores``, from one run of the
    synchronous rounds for the whole batch.

    Bit ``i`` of each mask stands for ``cores[i]``.  ``act[v]`` holds the
    cores in which vertex ``v`` is active.  ``over[j][k]`` holds those in
    which edge ``j`` has more than ``k`` active vertices, for ``k`` below
    ``t[j]``, so ``met[j]``, the last of them, holds those in which the
    edge has met its threshold; a vertex adds the bits it gains to each
    count once, as :func:`_spread` adds one per vertex.  Round 1 fires, for
    each core, the edges met at the start that do not lie inside it; round
    ``r`` fires the bits each edge's ``met`` gained in round ``r - 1``, so
    an edge fires once per core, when its count reaches its threshold.  A
    core's radius is the last round that fired an edge for it, which may
    activate nothing, and it is a core when its bit is in every ``act``.
    Like :func:`_spread`, it trusts ``cores`` and ``t``.
    """
    edges, incidence = graph.edges, graph._incidence
    full = (1 << len(cores)) - 1
    act = [0] * graph.n
    for i, core in enumerate(cores):
        for v in core:
            act[v] |= 1 << i
    gains = {v: a for v, a in enumerate(act) if a}  # the start's, then each round's
    over = [[0] * tj for tj in t]
    met = [0 if tj else full for tj in t]
    fire = {j: full for j, tj in enumerate(t) if not tj}
    rounds = []  # per round, the cores it fired an edge for
    while True:
        for u, new in gains.items():
            for j in incidence[u]:
                c = over[j]
                if c:  # an edge with a zero threshold is met from the start
                    carry = new
                    for k, ck in enumerate(c):
                        c[k] = ck | carry
                        carry = ck & new
                        if not carry:
                            break
                    if c[-1] != met[j]:
                        fire[j] = fire.get(j, 0) | (c[-1] ^ met[j])
                        met[j] = c[-1]
        if not rounds:  # the start: an edge inside a core never fires for it
            for j in list(fire):
                inside = full
                for u in edges[j]:
                    inside &= act[u]
                fire[j] &= ~inside
                if not fire[j]:
                    del fire[j]
        if not fire:
            break
        fired = 0
        gains = {}
        for j, bits in fire.items():
            fired |= bits
            for u in edges[j]:
                new = bits & ~act[u]
                if new:
                    act[u] |= new
                    gains[u] = gains.get(u, 0) | new
        rounds.append(fired)
        fire = {}
    cored = full
    for a in act:
        cored &= a
    radii: list[Optional[int]] = [None] * len(cores)
    for r in range(len(rounds), -1, -1):
        hit = cored & rounds[r - 1] if r else cored
        cored ^= hit
        bits = bin(hit)[:1:-1]
        i = bits.find("1")
        while i >= 0:
            radii[i] = r
            i = bits.find("1", i + 1)
    return radii


def is_core(graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None) -> bool:
    """True iff ``core`` activates every edge and every vertex.

    Runs the same rounds as :func:`propagate` without building the trace.
    Every vertex ends assimilated exactly when every edge fires and every
    vertex in no edge is in the core.
    """
    cs = _check_core(graph, core)
    t = resolve_thresholds(graph, thresholds)
    return -1 not in _spread(graph, cs, t)[0]


def assimilated_closure(
    graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None
) -> set[int]:
    """All vertices active after propagation from ``core`` (core included)."""
    cs = _check_core(graph, core)
    t = resolve_thresholds(graph, thresholds)
    depth = _spread(graph, cs, t)[0]
    return {v for v, d in enumerate(depth) if d >= 0}


def propagate(
    graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None
) -> PropagationTrace:
    """Synchronous-round propagation with full layer bookkeeping."""
    cs = _check_core(graph, core)
    t = resolve_thresholds(graph, thresholds)
    depth, credit, layers, inside, count = _spread(graph, cs, t)
    verdict = -1 not in depth  # then every edge fired, too
    return PropagationTrace(
        verdict=verdict,
        core=cs,
        layers=layers,
        initially_covered=tuple(inside),
        depth=depth,
        credit=credit,
        uncovered=() if verdict else tuple(j for j, c in enumerate(count) if c < t[j]),
    )


def trace_report(trace: PropagationTrace) -> str:
    """Line-oriented trace dump (1-based indices).

    One line per layer with its covered edges, then one line per vertex
    with its assimilation layer.
    """
    out = [f"verdict {'core' if trace.verdict else 'not-a-core'}"]
    if trace.initially_covered:
        out.append(
            "contained " + " ".join(str(i + 1) for i in trace.initially_covered)
        )
    for r, layer in enumerate(trace.layers, start=1):
        out.append(f"layer {r}: " + " ".join(str(i + 1) for i in layer))
    for v, d in enumerate(trace.depth):
        if d >= 0:
            out.append(f"vertex {v + 1} layer {d}")
    if trace.uncovered:
        out.append("uncovered " + " ".join(str(i + 1) for i in trace.uncovered))
    return "\n".join(out) + "\n"
