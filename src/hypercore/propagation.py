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
:func:`propagate` also packs its layers and credits into a
:class:`PropagationTrace`, whose ``radius`` is the layer count.  Each
public function takes its thresholds through
:func:`~.hypergraph.resolve_thresholds`, which holds the rule.

``_absorb`` computes only the closure, the set of vertices active at the
end, firing edges one at a time in stack order.  Rounds do not extend
across seed sets: a seed added later can change the round of every
vertex.  Closures do: propagation is a closure operator, so
``cl(A | B) = cl(cl(A) | B)``, and the closure of a set can be built by
extending the closure of any subset of it.  The oracle extends each
subset's closure from its lexicographic prefix that way, and keeps the
rounds for the radius and for confirming its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .hypergraph import Hypergraph, Thresholds, resolve_thresholds


class NotACoreError(ValueError):
    """Raised when an operation requires a core but the set is not one."""


@dataclass
class PropagationTrace:
    """Full record of one propagation run.

    ``layers`` partitions the edges covered during the rounds;
    ``initially_covered`` lists edges that were subsets of the core and
    never entered a layer.  ``assimilated_at`` maps each active vertex to
    its layer (0 for core members).  ``assimilator`` maps each edge whose
    covering activated new vertices to the vertices it is credited with.
    When two same-layer edges could both activate a vertex, the smallest
    edge index gets the credit.
    """

    verdict: bool
    core: frozenset[int]
    layers: list[tuple[int, ...]]
    initially_covered: tuple[int, ...]
    assimilated_at: dict[int, int]
    assimilator: dict[int, tuple[int, ...]] = field(default_factory=dict)
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

    Returns ``(depth, credit, layers, inside, fired)``.  ``depth[v]`` is
    the round that assimilated ``v`` (0 for the core, -1 for never) and
    ``credit[v]`` the smallest-index edge of that round containing ``v``
    (-1 when no edge assimilated it).  ``layers`` holds each round's fired
    edges in ascending order, ``inside`` the edges lying inside the core,
    and ``fired[j]`` is set for every edge that fired or lies inside.
    """
    edges, incidence = graph.edges, graph._incidence
    depth = [-1] * graph.n
    credit = [-1] * graph.n
    count = [0] * graph.m
    for v in core:
        depth[v] = 0
        for j in incidence[v]:
            count[j] += 1
    fired = bytearray(graph.m)
    inside = []
    frontier = []
    for j, e in enumerate(edges):
        if count[j] == len(e):
            fired[j] = 1
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
            fired[j] = 1
            for u in edges[j]:
                if depth[u] < 0:
                    depth[u] = r
                    credit[u] = j
                    new.append(u)
        frontier = []
        for u in new:
            for j in incidence[u]:
                count[j] += 1
                # counts grow by one, so an edge meets its threshold once
                if count[j] == t[j] and not fired[j]:
                    frontier.append(j)
    return depth, credit, layers, inside, fired


def _base_state(graph: Hypergraph, t: Sequence[int]):
    """The closure state of the empty seed set under thresholds ``t``, as
    ``(active, count, fired, left)`` for :func:`_absorb`: every edge with
    ``t[j] == 0`` fires before any vertex is active."""
    active = bytearray(graph.n)
    count = [0] * graph.m
    fired = bytearray(graph.m)
    left = graph.n + graph.m
    seeds = []
    for j, tj in enumerate(t):
        if not tj:
            fired[j] = 1
            left -= 1
            seeds += graph.edges[j]
    left = _absorb(graph, t, active, count, fired, left, seeds)
    return active, count, fired, left


def _absorb(
    graph: Hypergraph, t: Sequence[int], active, count, fired, left: int, seeds
) -> int:
    """Extend a closure state by ``seeds`` in place; return the new ``left``.

    ``active`` marks the active vertices, ``count[j]`` counts those in edge
    ``j``, ``fired`` marks the fired edges and ``left`` counts the vertices
    not yet active plus the edges not yet fired; all four describe one
    closed state, such as :func:`_base_state`, which the call updates.  A
    seed already active changes nothing.  Activations go one at a time, in
    stack order: the closure does not depend on the order.  ``left`` ends
    at 0 exactly when every vertex is active, that is, for a core.
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
            c = count[j] + 1
            count[j] = c
            # counts grow by one from a closed state, so an edge meets its
            # threshold once; an edge with a zero threshold fired in the
            # base state
            if c == t[j]:
                fired[j] = 1
                left -= 1
                for u in edges[j]:
                    if not active[u]:
                        active[u] = 1
                        left -= 1
                        stack.append(u)
    return left


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
    depth, credit, layers, inside, fired = _spread(graph, cs, t)
    verdict = -1 not in depth
    # Most edges are credited with one vertex: it is stored as a 1-tuple,
    # and only an edge credited with a second vertex grows a list.
    assimilator: dict[int, tuple[int, ...]] = {}
    grown: dict[int, list[int]] = {}
    for v, j in enumerate(credit):
        if j >= 0:
            if j in grown:
                grown[j].append(v)
            elif j in assimilator:
                grown[j] = [*assimilator[j], v]
            else:
                assimilator[j] = (v,)
    for j, vs in grown.items():
        assimilator[j] = tuple(vs)
    if verdict:  # every vertex is active and every edge fired
        assimilated_at = dict(enumerate(depth))
        uncovered: tuple[int, ...] = ()
    else:
        assimilated_at = {v: d for v, d in enumerate(depth) if d >= 0}
        uncovered = tuple(j for j, f in enumerate(fired) if not f)
    return PropagationTrace(
        verdict=verdict,
        core=cs,
        layers=layers,
        initially_covered=tuple(inside),
        assimilated_at=assimilated_at,
        assimilator=assimilator,
        uncovered=uncovered,
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
    for depth, layer in enumerate(trace.layers, start=1):
        out.append(f"layer {depth}: " + " ".join(str(i + 1) for i in layer))
    for v in sorted(trace.assimilated_at):
        out.append(f"vertex {v + 1} layer {trace.assimilated_at[v]}")
    if trace.uncovered:
        out.append("uncovered " + " ".join(str(i + 1) for i in trace.uncovered))
    return "\n".join(out) + "\n"
