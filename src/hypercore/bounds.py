"""Structural lower bounds on the radius achievable at a given core size.

Activation spreads along shared edges, so a sparse instance needs many
rounds: with at most ``j`` neighbors per vertex, ``r`` rounds from ``s``
seeds reach at most ``s * (1 + j + ... + j^r)`` vertices, giving
``r > log_j(n / s) - 1``; the same argument works with the maximum degree
``d``.  Separately, every active vertex sits within ``r`` hops of a seed,
so ``r`` is at least roughly ``diam / (2 s)``.  These arguments assume
every edge has at least two vertices (size-1 edges activate without a
neighbor and void the premises); the report functions evaluate the
formulas regardless and leave the caveat to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .hypergraph import Hypergraph, Thresholds, _bfs_distances, diameter
from .propagation import NotACoreError, propagate

#: Slack for comparing an integer radius against a float bound.
GUARD_BAND = 1e-9


@dataclass
class BoundReport:
    j_neighbors: int
    d_degree: int
    diameter: float
    neighbor_bound: float
    degree_bound: float
    diameter_bound: float
    neighbor_degenerate: bool
    degree_degenerate: bool


def max_neighbor_count(graph: Hypergraph) -> int:
    return max((len(graph.neighbors(v)) for v in range(graph.n)), default=0)


def max_degree(graph: Hypergraph) -> int:
    return max(graph.degrees(), default=0)


def _log_bound(base: int, n: int, core_size: int) -> float:
    if core_size < 1:
        raise ValueError("core size must be at least 1")
    if base <= 1:
        return 0.0  # degenerate logarithm base; the bound is vacuous
    return math.log(n / core_size, base) - 1.0


def neighbor_radius_bound(graph: Hypergraph, core_size: int) -> float:
    """Every core of this size has radius strictly above the returned value
    (vacuous 0.0 when the maximum neighbor count is below 2)."""
    return _log_bound(max_neighbor_count(graph), graph.n, core_size)


def degree_radius_bound(graph: Hypergraph, core_size: int) -> float:
    """Same bound with the maximum degree as the branching factor."""
    return _log_bound(max_degree(graph), graph.n, core_size)


def diameter_radius_bound(graph: Hypergraph, core_size: int) -> float:
    """``floor(diam / (2 * core_size))``; infinite when disconnected.

    Sound in the non-strict sense: no core of the given size has a
    smaller radius.  Equality can occur (seeds placed centrally), so the
    strict form holds only when seeds sit at the ends of a longest
    shortest path.
    """
    if core_size < 1:
        raise ValueError("core size must be at least 1")
    return _diameter_bound(diameter(graph), core_size)


def _diameter_bound(diam: float, core_size: int) -> float:
    return math.inf if math.isinf(diam) else float(int(diam) // (2 * core_size))


def layer_distance_check(
    graph: Hypergraph, core: Iterable[int], thresholds: Thresholds = None
) -> bool:
    """True iff every activated vertex's layer is at least its hop distance
    to the nearest core vertex."""
    trace = propagate(graph, core, thresholds)
    if not trace.verdict:
        raise NotACoreError(f"{sorted(trace.core)} is not a core")
    dist = _bfs_distances(graph, sorted(trace.core))
    for v, layer in enumerate(trace.depth):
        if layer and (dist[v] < 0 or layer < dist[v]):
            return False
    return True


def bound_report(graph: Hypergraph, core_size: int) -> BoundReport:
    """All bounds for one instance and core size; needs ``n >= 2``."""
    j = max_neighbor_count(graph)
    d = max_degree(graph)
    diam = diameter(graph)
    return BoundReport(
        j_neighbors=j,
        d_degree=d,
        diameter=diam,
        neighbor_bound=_log_bound(j, graph.n, core_size),
        degree_bound=_log_bound(d, graph.n, core_size),
        diameter_bound=_diameter_bound(diam, core_size),
        neighbor_degenerate=j <= 1,
        degree_degenerate=d <= 1,
    )
