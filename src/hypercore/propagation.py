"""Seed-set propagation over hyperedges: activation check, layers, radius.

A seed set ("core") activates the instance as follows.  Every seed vertex
starts assimilated.  An edge whose assimilated-vertex count reaches its
activation threshold ``t(e)`` becomes covered and assimilates all of its
vertices.  The default threshold ``t(e) = |e| - 1`` means an edge fires as
soon as at most one of its vertices is missing.  A set is a core when this
process covers every edge and leaves no vertex inactive; vertices in no
edge can only become active by being seeds, so they must belong to the
core itself.

:func:`propagate` runs the process in synchronous rounds and records the
resulting layer structure: layer ``L_i`` holds every still-uncovered edge
whose threshold is met by the vertices assimilated before round ``i``.
Because the firing rule is monotone, this greedy schedule uses the fewest
possible rounds, so the number of layers is the radius of the core.  Edges
fully inside the core are covered up front and belong to no layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .hypergraph import Hypergraph, default_thresholds


class NotACoreError(ValueError):
    """Raised when an operation requires a core but the set is not one."""


@dataclass(frozen=True)
class ThresholdMap:
    """Per-edge activation thresholds, aligned with the edge list.

    Valid values satisfy ``0 <= t(e) <= |e| - 1``; size-1 edges admit only
    the degenerate threshold 0 (they fire unconditionally).  The default
    map assigns every edge ``|e| - 1``.
    """

    values: tuple[int, ...]

    @classmethod
    def default(cls, graph: Hypergraph) -> "ThresholdMap":
        return cls(default_thresholds(graph))

    def validate(self, graph: Hypergraph) -> None:
        defaults = default_thresholds(graph)
        if len(self.values) != len(defaults):
            raise ValueError("threshold count differs from edge count")
        if self.values == defaults:  # valid by definition; skips the loop
            return
        for i, (t, hi) in enumerate(zip(self.values, defaults)):
            if not 0 <= t <= hi:
                raise ValueError(f"threshold {t} for edge {i} outside [0, {hi}]")


Thresholds = Union[ThresholdMap, Sequence[int], None]


def resolve_thresholds(graph: Hypergraph, thresholds: Thresholds) -> tuple[int, ...]:
    """Normalize a threshold argument to a validated value tuple."""
    if thresholds is None:
        return default_thresholds(graph)
    if not isinstance(thresholds, ThresholdMap):
        thresholds = ThresholdMap(tuple(thresholds))
    thresholds.validate(graph)
    return thresholds.values


@dataclass
class PropagationTrace:
    """Full record of one propagation run.

    ``layers`` partitions the edges covered during the rounds;
    ``initially_covered`` lists edges that were subsets of the core and
    never entered a layer.  ``assimilated_at`` maps each active vertex to
    its layer (0 for core members).  An edge is *extending* when covering
    it activated at least one new vertex; ``assimilator`` records which
    vertices it is credited with.  When two same-layer edges could both
    activate a vertex, the smallest edge index gets the credit.
    """

    verdict: bool
    core: frozenset[int]
    layers: list[tuple[int, ...]]
    initially_covered: tuple[int, ...]
    assimilated_at: dict[int, int]
    extending: list[bool]
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


def _isolated_outside(graph: Hypergraph, core: frozenset[int]) -> bool:
    return any(
        not graph._incidence[v] and v not in core for v in range(graph.n)
    )


def is_core(graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None) -> bool:
    """True iff ``core`` activates every edge and every vertex.

    Queue-based closure; equivalent to :func:`propagate` but without layer
    bookkeeping.
    """
    cs = _check_core(graph, core)
    t = resolve_thresholds(graph, thresholds)
    if _isolated_outside(graph, cs):
        return False
    covered = _closure(graph, cs, t)[1]
    return all(covered)


def assimilated_closure(
    graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None
) -> set[int]:
    """All vertices active after propagation from ``core`` (core included)."""
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


def propagate(
    graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None
) -> PropagationTrace:
    """Synchronous-round propagation with full layer bookkeeping."""
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

    assimilated_at = {v: 0 for v in cs}
    layers: list[tuple[int, ...]] = []
    extending = [False] * graph.m
    assimilator: dict[int, tuple[int, ...]] = {}

    while pending:
        layer = tuple(sorted(pending))
        layers.append(layer)
        depth = len(layers)
        credited: dict[int, int] = {}  # new vertex -> smallest same-layer edge
        for e_idx in layer:
            covered[e_idx] = True
            for u in edges[e_idx]:
                if not assim[u] and u not in credited:
                    credited[u] = e_idx
        by_edge: dict[int, list[int]] = {}
        for u, e_idx in credited.items():
            assim[u] = 1
            assimilated_at[u] = depth
            by_edge.setdefault(e_idx, []).append(u)
        for e_idx, vs in by_edge.items():
            extending[e_idx] = True
            assimilator[e_idx] = tuple(sorted(vs))
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
        assimilated_at=assimilated_at,
        extending=extending,
        assimilator=assimilator,
        uncovered=uncovered,
    )


def radius(graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None) -> int:
    """Number of propagation layers; requires ``core`` to be a core."""
    trace = propagate(graph, core, thresholds)
    if not trace.verdict:
        raise NotACoreError(f"{sorted(trace.core)} is not a core")
    return trace.radius


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
