"""Incremental edge orderings ("filtrations") and their equivalence to cores.

A filtration presents the instance as a chain of subhypergraphs: start
from a foundation vertex set, then append the edges one at a time, each
bringing along at most one vertex it introduces.  The foundation of a
valid filtration is a core, and conversely a core's propagation order
linearizes into a valid filtration with the same radius; both conversions
are implemented here.

Validation checks, in this order:

1. the edge order is a permutation of all edges (malformed input raises);
2. every edge keeps at least one vertex outside the foundation;
3. each position introduces at most one new vertex;
4. a declared introduced vertex matches the derived one;
5. the chain reaches every vertex of the instance.

The recorded violation strings start with ``condition <k>`` using the
numbering above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .hypergraph import HceParseError, Hypergraph, _counted, _records
from .propagation import NotACoreError, propagate


@dataclass(frozen=True)
class Filtration:
    """Foundation plus a total edge order; ``added_vertex[i]`` is the vertex
    position ``i`` introduces (None when the edge brings no new vertex)."""

    foundation: frozenset[int]
    edge_order: tuple[int, ...]
    added_vertex: tuple[Optional[int], ...]


def validate_filtration(
    graph: Hypergraph, filtration: Filtration
) -> tuple[bool, Optional[str]]:
    """Check the chain conditions; returns ``(ok, first_violation)``.

    A malformed permutation or out-of-range vertex raises ``ValueError``;
    condition violations are reported in the return value.
    """
    order = filtration.edge_order
    if sorted(order) != list(range(graph.m)):
        raise ValueError("edge order is not a permutation of all edges")
    if len(filtration.added_vertex) != graph.m:
        raise ValueError("added_vertex length differs from edge count")
    for v in filtration.foundation:
        if not 0 <= v < graph.n:
            raise ValueError(f"foundation vertex {v} outside [0, {graph.n})")
    for e in graph.edges:
        if set(e) <= filtration.foundation:
            return False, f"condition 2: edge {e} lies inside the foundation"
    seen = set(filtration.foundation)
    for pos, edge_index in enumerate(order):
        new = set(graph.edges[edge_index]) - seen
        if len(new) > 1:
            return (
                False,
                f"condition 3: position {pos + 1} introduces {len(new)} vertices",
            )
        declared = filtration.added_vertex[pos]
        derived = next(iter(new)) if new else None
        if declared != derived:
            return (
                False,
                f"condition 4: position {pos + 1} declares {declared},"
                f" derived {derived}",
            )
        seen |= new
    if len(seen) != graph.n:
        return False, "condition 5: chain does not reach every vertex"
    return True, None


class InvalidFiltrationError(ValueError):
    pass


def _require_valid(graph: Hypergraph, filtration: Filtration) -> None:
    ok, why = validate_filtration(graph, filtration)
    if not ok:
        raise InvalidFiltrationError(why)


def filtration_radius(graph: Hypergraph, filtration: Filtration) -> int:
    """Radius of a valid filtration.

    For each position ``i``, ``r(i)`` is the earliest chain position whose
    vertex set misses exactly one vertex of edge ``E_i``; the radius is
    the depth needed to iterate ``r`` down to the foundation from every
    position.
    """
    _require_valid(graph, filtration)
    position_of_vertex = {
        v: pos + 1
        for pos, v in enumerate(filtration.added_vertex)
        if v is not None
    }
    m = graph.m
    r = [0] * (m + 1)
    for pos, edge_index in enumerate(filtration.edge_order, start=1):
        arrivals = sorted(
            position_of_vertex[v]
            for v in graph.edges[edge_index]
            if v not in filtration.foundation
        )
        if not arrivals:  # pragma: no cover - excluded by condition 2
            raise InvalidFiltrationError(
                f"no chain position leaves edge {edge_index} one vertex short"
            )
        r[pos] = arrivals[-2] if len(arrivals) >= 2 else 0
    depth = [0] * (m + 1)
    for i in range(1, m + 1):
        depth[i] = 1 + depth[r[i]]
    return max(depth[1:], default=0)


def core_to_filtration(graph: Hypergraph, core: Iterable[int]) -> Filtration:
    """Linearize a core's propagation into a filtration with equal radius.

    Edges are ordered layer by layer, ascending edge index inside a layer;
    each position introduces the vertex the trace credits to its edge.
    Requires every edge to keep a vertex outside the core.
    """
    trace = propagate(graph, core)
    if not trace.verdict:
        raise NotACoreError(f"{sorted(trace.core)} is not a core")
    if trace.initially_covered:
        raise InvalidFiltrationError(
            "condition 2: core contains whole edges "
            + str([graph.edges[i] for i in trace.initially_covered])
        )
    added: list[Optional[int]] = [None] * graph.m
    for v, j in enumerate(trace.credit):
        if j >= 0:
            if added[j] is not None:
                raise RuntimeError("default-threshold layers add at most one vertex")
            added[j] = v
    order = [e for layer in trace.layers for e in layer]
    return Filtration(
        foundation=frozenset(trace.core),
        edge_order=tuple(order),
        added_vertex=tuple([added[j] for j in order]),
    )


def filtration_to_core(graph: Hypergraph, filtration: Filtration) -> frozenset[int]:
    """The foundation of a valid filtration, which is always a core."""
    _require_valid(graph, filtration)
    return frozenset(filtration.foundation)


# ---------------------------------------------------------------------------
# Filtration text format: "f <b> <foundation...>" then one "o" line per
# chain position, all 1-based.


def write_filtration(filtration: Filtration) -> str:
    foundation = sorted(filtration.foundation)
    out = [
        "f "
        + " ".join(str(x) for x in (len(foundation), *(v + 1 for v in foundation)))
    ]
    for edge_index, added in zip(filtration.edge_order, filtration.added_vertex):
        if added is None:
            out.append(f"o {edge_index + 1}")
        else:
            out.append(f"o {edge_index + 1} {added + 1}")
    return "\n".join(out) + "\n"


def read_filtration(
    text: str, n: Optional[int] = None, m: Optional[int] = None
) -> Filtration:
    """Parse one ``f`` line of distinct vertices, then the ``o`` lines.

    An edge ordered twice is an error on its second line.  With ``n``
    (``m``) given, a vertex (edge) index above it is an error on its line,
    and with ``m`` given, ordering fewer than ``m`` edges is an error on
    the ``f`` line."""
    foundation: Optional[frozenset[int]] = None
    order: list[int] = []
    added: list[Optional[int]] = []
    ordered: set[int] = set()
    for line_no, kind, nums in _records(text, ("f", "o")):
        if kind == "f":
            if foundation is not None:
                raise HceParseError(line_no, "duplicate foundation line")
            head, foundation = line_no, frozenset(_counted(line_no, nums, n))
        elif foundation is None:
            raise HceParseError(line_no, "order line before foundation")
        elif len(nums) not in (1, 2) or min(nums) < 1:
            raise HceParseError(line_no, "order line needs edge [vertex], 1-based")
        elif m is not None and nums[0] > m:
            raise HceParseError(line_no, f"edge {nums[0]} outside [1, {m}]")
        elif n is not None and nums[1:] and nums[1] > n:
            raise HceParseError(line_no, f"vertex {nums[1]} outside [1, {n}]")
        elif nums[0] in ordered:
            raise HceParseError(line_no, f"edge {nums[0]} ordered twice")
        else:
            ordered.add(nums[0])
            order.append(nums[0] - 1)
            added.append(nums[1] - 1 if len(nums) == 2 else None)
    if foundation is None:
        raise HceParseError(1, "missing foundation line")
    if m is not None and len(order) < m:
        raise HceParseError(head, f"{len(order)} of {m} edges ordered")
    return Filtration(foundation, tuple(order), tuple(added))
