"""Instance compilers: covering, bipartite-covering and CNF problems to cores.

Each compiler emits a labeled hypergraph plus a certificate object holding
the source instance and the vertex bookkeeping needed to pull a solution
back out of a core.  Vertex labels record each vertex's gadget role, so
emitted instances are self-describing in the text format.

Also hosts the two threshold transformations that pad every edge with
fresh vertices (one shared, or one per edge) while shifting the minimum
core size by exactly one or zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .hypergraph import (
    _MAX_DECLARED,
    HceParseError,
    Hypergraph,
    Thresholds,
    _counted,
    _records,
    resolve_thresholds,
)
from .propagation import NotACoreError, assimilated_closure, is_core


# ---------------------------------------------------------------------------
# Source problem instances


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe ``0..universe_size-1`` and a family of subsets covering it."""

    universe_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        union: set[int] = set()
        for s in self.sets:
            for x in s:
                if not 0 <= x < self.universe_size:
                    raise ValueError(f"element {x} outside the universe")
            union |= s
        if len(union) != self.universe_size:  # every element is in range
            raise ValueError("the set family must cover the universe")


@dataclass(frozen=True)
class MinrepInstance:
    """Bipartite graph with equal-size group partitions on both sides.

    Left nodes are ``0..q_a*m_a-1`` in group-major order (node ``a`` lies
    in group ``a // m_a``); right nodes likewise.  A super-edge is a group
    pair joined by at least one edge.
    """

    q_a: int
    m_a: int
    q_b: int
    m_b: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if min(self.q_a, self.m_a, self.q_b, self.m_b) < 1:
            raise ValueError("group counts and sizes must be positive")
        for a, b in self.edges:
            if not 0 <= a < self.num_a:
                raise ValueError(f"left node {a} out of range")
            if not 0 <= b < self.num_b:
                raise ValueError(f"right node {b} out of range")

    @property
    def num_a(self) -> int:
        return self.q_a * self.m_a

    @property
    def num_b(self) -> int:
        return self.q_b * self.m_b

    def covering_pairs(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Each super-edge, in sorted order, with the sorted node pairs
        ``(a, num_a + b)`` of its edges: right nodes are numbered after the
        left ones, as in the compiler and the oracle."""
        pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for a, b in self.edges:
            se = (a // self.m_a, b // self.m_b)
            pairs.setdefault(se, []).append((a, self.num_a + b))
        return {se: tuple(sorted(pairs[se])) for se in sorted(pairs)}


@dataclass(frozen=True)
class CnfFormula:
    """CNF with exactly three pairwise distinct signed literals per clause."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3 or len(set(clause)) != 3:
                raise ValueError(f"clause {clause} needs three distinct literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class ReductionCertificate:
    instance: Hypergraph


@dataclass
class SetCoverCertificate(ReductionCertificate):
    source: SetCoverInstance
    _element_base: int  # vertex of the first element twin

    @property
    def num_sets(self) -> int:
        return len(self.source.sets)

    def set_vertices(self, i: int) -> tuple[int, int]:
        return 2 * i, 2 * i + 1

    def element_vertices(self, j: int) -> tuple[int, int]:
        return self._element_base + 2 * j, self._element_base + 2 * j + 1

    def element_of_vertex(self, v: int) -> Optional[int]:
        offset = v - self._element_base
        if 0 <= offset < 2 * self.source.universe_size:
            return offset // 2
        return None


@dataclass(frozen=True)
class AndGadgetInfo:
    inputs: tuple[int, ...]
    output: int
    x1: int
    x2: int


@dataclass
class MinrepCertificate(ReductionCertificate):
    source: MinrepInstance
    copy_vertex: dict[tuple[int, tuple[int, int]], int] = field(default_factory=dict)
    gadgets: tuple[AndGadgetInfo, ...] = ()
    inner_to_gadget: dict[int, int] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return self.source.num_a + self.source.num_b


@dataclass
class SatRadiusCertificate(ReductionCertificate):
    source: CnfFormula
    y_vertex: dict[tuple[int, int], int] = field(default_factory=dict)
    chain: tuple[int, ...] = ()

    def literal_vertex(self, clause: int, slot: int) -> int:
        return 9 * clause + slot


# ---------------------------------------------------------------------------
# Set Cover


def setcover_to_mincore(instance: SetCoverInstance) -> SetCoverCertificate:
    """Compile a covering instance so minimum cores match minimum covers.

    Every set and every universe element becomes a twin vertex pair.  Twin
    edges let a chosen set activate its partner; membership edges hand
    activation from a set pair to its elements; collector edges (all
    element vertices plus one set-side vertex) hand it back, so once every
    element is active the remaining set pairs follow.
    """
    return _compile_setcover(instance, three_uniform=False)


def setcover_to_mincore_3uniform(instance: SetCoverInstance) -> SetCoverCertificate:
    """Covering compiler emitting only size-3 edges.

    Twin edges gain a shared hub vertex; the collector edges are expanded
    into per-set trees rooted at the set twins with the element vertices
    as leaves.  Minimum core size becomes minimum cover size plus one (the
    hub).  An empty universe with at least one set is refused: its
    collector trees would have no leaves.
    """
    if instance.sets and not instance.universe_size:
        raise ValueError("the 3-uniform covering compiler needs a non-empty universe")
    return _compile_setcover(instance, three_uniform=True)


def _compile_setcover(
    instance: SetCoverInstance, three_uniform: bool
) -> SetCoverCertificate:
    """Set twins ``2i, 2i+1``, then the hub (3-uniform only), then element
    twins, then the collector trees' internal vertices (3-uniform only)."""
    k = len(instance.sets)
    hub = (2 * k,) if three_uniform else ()
    base = 2 * k + len(hub)
    labels = {v: "hub" for v in hub}
    for i in range(k):
        labels[2 * i] = f"set{i + 1}a"
        labels[2 * i + 1] = f"set{i + 1}b"
    for j in range(instance.universe_size):
        labels[base + 2 * j] = f"elem{j + 1}a"
        labels[base + 2 * j + 1] = f"elem{j + 1}b"
    elements = list(range(base, base + 2 * instance.universe_size))
    edges: list[tuple[int, ...]] = [(2 * i, 2 * i + 1, *hub) for i in range(k)]
    for i in range(k):
        for j in sorted(instance.sets[i]):
            edges.append((2 * i, 2 * i + 1, base + 2 * j))
            edges.append((2 * i, 2 * i + 1, base + 2 * j + 1))
    fresh = base + len(elements)
    for root in range(2 * k):
        if three_uniform:
            tree, end = _gadget_edges(elements, root, fresh)
            for t in range(fresh, end):
                labels[t] = f"tree{t - fresh + 1}@g{root + 1}"
            edges.extend(tree)
            fresh = end
        else:
            edges.append((root, *elements))
    return SetCoverCertificate(Hypergraph(fresh, edges, labels), instance, base)


def core_to_setcover(cert: SetCoverCertificate, core: Iterable[int]) -> list[int]:
    """Pull a set cover out of a core; never larger than the core.

    Element-side core vertices are first relocated to the smallest set
    containing their element, then every set with a chosen twin joins the
    cover.
    """
    if cert._element_base != 2 * cert.num_sets:  # a hub precedes the elements
        raise ValueError("extraction is defined for the general covering compiler")
    if not is_core(cert.instance, core):
        raise NotACoreError("the given set is not a core of the compiled instance")
    relocated: set[int] = set()
    for v in sorted(core):
        j = cert.element_of_vertex(v)
        if j is None:
            relocated.add(v)
        else:
            i = min(i for i, s in enumerate(cert.source.sets) if j in s)
            relocated.add(2 * i)
    cover = sorted({v // 2 for v in relocated if v < 2 * cert.num_sets})
    chosen: set[int] = set()
    for i in cover:
        chosen |= cert.source.sets[i]
    if chosen != set(range(cert.source.universe_size)):
        raise NotACoreError("core did not induce a full cover")
    return cover


# ---------------------------------------------------------------------------
# Triangulation gadget


def _gadget_edges(
    leaves: Sequence[int], root: int, first_fresh: int
) -> tuple[list[tuple[int, int, int]], int]:
    """Balanced full binary tree of size-3 edges over ``leaves`` (the left
    half takes the middle leaf), topped by ``root``; returns (edges, next
    fresh id).  Edges are listed in post-order, children before their
    parent, and the internal vertices below ``root`` get fresh ids from
    ``first_fresh`` in that order."""
    n = len(leaves)
    if n < 2:
        raise ValueError("a rooted gadget needs at least two leaves")
    splits = []  # (lo, mid, hi) of each internal vertex, in pre-order, right first
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo > 1:
            mid = (lo + hi + 1) // 2
            splits.append((lo, mid, hi))
            stack += [(lo, mid), (mid, hi)]
    edges: list[tuple[int, int, int]] = []
    tops = []  # the internal vertices whose parent has no edge yet
    for lo, mid, hi in reversed(splits):  # left, right, parent: post-order
        right = leaves[mid] if hi - mid == 1 else tops.pop()
        left = leaves[lo] if mid - lo == 1 else tops.pop()
        top = first_fresh + len(edges) if hi - lo < n else root
        edges.append((top, left, right))
        tops.append(top)
    return edges, first_fresh + len(edges) - 1


def triangulate_edge(graph: Hypergraph, edge_index: int) -> Hypergraph:
    """Replace one edge by a tree of size-3 edges; minimum core size is kept.

    The smallest vertex of the edge becomes the tree root, the others its
    leaves; ``|e| - 3`` fresh internal vertices are appended.  Size-3
    edges are already in target shape and are returned unchanged; smaller
    edges are rejected.
    """
    if not 0 <= edge_index < graph.m:
        raise ValueError(f"edge index {edge_index} out of range")
    e = graph.edges[edge_index]
    if len(e) < 3:
        raise ValueError("only edges with at least three vertices can be expanded")
    if len(e) == 3:
        return graph
    root, leaves = e[0], list(e[1:])
    gadget_edges, next_fresh = _gadget_edges(leaves, root, graph.n)
    labels = dict(graph.labels)
    for t in range(graph.n, next_fresh):
        labels[t] = f"tree{t - graph.n + 1}@e{edge_index + 1}"
    edges = list(graph.edges)
    edges[edge_index : edge_index + 1] = gadget_edges
    return Hypergraph(next_fresh, edges, labels)


# ---------------------------------------------------------------------------
# AND gadget and the bipartite covering reduction


def _and_edges(ins: list[int], output: int, first_inner: int):
    """Three edges forcing ``output`` active only after all of ``ins``,
    returned with their fresh relays ``x1 = first_inner`` and
    ``x2 = first_inner + 1``, which must appear in no other edge."""
    x1, x2 = first_inner, first_inner + 1
    return (
        [
            tuple(sorted(ins + [x1])),
            tuple(sorted(ins + [x2])),
            tuple(sorted((x1, x2, output))),
        ],
        x1,
        x2,
    )


def minrep_to_mincore(instance: MinrepInstance) -> MinrepCertificate:
    """Compile bipartite super-edge covering into minimum core search.

    Every graph node and two copies of every super-edge become vertices.
    For each bipartite edge, relay gadgets activate both copies of its
    super-edge once both endpoints are active; a second bank of gadgets
    re-activates every node once all copies are active.  Minimum cores
    correspond to minimum covering node picks.
    """
    num_a, num_b = instance.num_a, instance.num_b
    labels = {}
    for a in range(num_a):
        labels[a] = f"a{a + 1}"
    for b in range(num_b):
        labels[num_a + b] = f"b{b + 1}"
    covering = instance.covering_pairs()
    copy_vertex: dict[tuple[int, tuple[int, int]], int] = {}
    base = num_a + num_b
    for c in (1, 2):
        for se in covering:
            copy_vertex[(c, se)] = base
            labels[base] = f"link{se[0] + 1}_{se[1] + 1}_{c}"
            base += 1
    edges: list[tuple[int, ...]] = []
    gadgets: list[AndGadgetInfo] = []
    inner_to_gadget: dict[int, int] = {}

    def emit(ins: list[int], output: int) -> None:
        nonlocal base
        gadget_edges, x1, x2 = _and_edges(sorted(ins), output, base)
        labels[x1] = f"and{len(gadgets) + 1}a"
        labels[x2] = f"and{len(gadgets) + 1}b"
        base = x2 + 1
        edges.extend(gadget_edges)
        inner_to_gadget[x1] = inner_to_gadget[x2] = len(gadgets)
        gadgets.append(AndGadgetInfo(tuple(sorted(ins)), output, x1, x2))

    # In edge order: the pairs are (a, num_a + b), so they sort as the edges do.
    for pair, se in sorted((p, se) for se, ps in covering.items() for p in ps):
        for c in (1, 2):
            emit(list(pair), copy_vertex[(c, se)])
    all_copies = [copy_vertex[(c, se)] for c in (1, 2) for se in covering]
    for v in range(num_a + num_b):
        emit(all_copies, v)
    graph = Hypergraph(base, edges, labels)
    return MinrepCertificate(
        instance=graph,
        source=instance,
        copy_vertex=copy_vertex,
        gadgets=tuple(gadgets),
        inner_to_gadget=inner_to_gadget,
    )


def core_to_minrep(cert: MinrepCertificate, core: Iterable[int]) -> frozenset[int]:
    """Rewrite a core into an equal-or-smaller one using only graph nodes.

    Relays go one at a time: one whose partner the rest still activates
    becomes its gadget's output, any other the one input left inactive.
    Both copies of a super-edge become its first endpoint pair, and a lone
    copy is dropped.  The result is a node pick covering every super-edge.
    """
    graph = cert.instance
    work = set(core)
    if not is_core(graph, work):
        raise NotACoreError("the given set is not a core of the compiled instance")
    while True:
        inner = sorted(v for v in work if v in cert.inner_to_gadget)
        if not inner:
            break
        x = inner[0]
        info = cert.gadgets[cert.inner_to_gadget[x]]
        partner = info.x2 if x == info.x1 else info.x1
        base_set = work - {x}
        closure = assimilated_closure(graph, base_set)
        # x1, x2 lie in no other edge: the inputs or x in the closure put the
        # partner there (both relays fire, or x came from (x1, x2, output))
        if partner in closure:
            candidate = base_set | {info.output}
        else:
            missing = [u for u in info.inputs if u not in closure]
            if len(missing) != 1:
                raise RuntimeError("a core can be one input short at most")
            candidate = base_set | {missing[0]}
        if not is_core(graph, candidate):
            raise RuntimeError("relay rewrite must preserve core-ness")
        work = candidate
    for se, pairs in cert.source.covering_pairs().items():
        c1 = cert.copy_vertex[(1, se)]
        c2 = cert.copy_vertex[(2, se)]
        present = [c for c in (c1, c2) if c in work]
        if len(present) == 2:
            a, b = pairs[0]
            work = (work - {c1, c2}) | {a, b}
        elif len(present) == 1:
            work = work - {present[0]}
        if present and not is_core(graph, work):
            raise RuntimeError("copy rewrite must preserve core-ness")
    if any(v >= cert.node_count for v in work):
        raise RuntimeError("rewritten core must use graph nodes only")
    return frozenset(work)


# ---------------------------------------------------------------------------
# CNF radius reduction


def threesat_to_mincore_radius(formula: CnfFormula, k: int) -> SatRadiusCertificate:
    """Compile a CNF so some minimum core has radius <= k iff it is satisfiable.

    Per clause: three literal-slot vertices pairwise joined (so one active
    slot activates the rest), each with a guard vertex one step behind and
    an outer vertex two steps behind.  Per clause pair: a meeting vertex
    joined to outer-vertex pairs except those whose slots carry
    complementary literals; with a satisfying choice the meeting vertices
    activate one round earlier.  A chain of ``k - 3`` vertices hangs off
    the meeting vertices and converts that one-round difference into
    radius ``k`` versus ``k + 1``.
    """
    if k < 4:
        raise ValueError("the radius construction needs k >= 4")
    mc = len(formula.clauses)
    labels = {}
    for i in range(mc):
        for p in range(3):
            labels[9 * i + p] = f"lit{i + 1}_{p + 1}"
            labels[9 * i + 3 + p] = f"mid{i + 1}_{p + 1}"
            labels[9 * i + 6 + p] = f"cap{i + 1}_{p + 1}"
    y_vertex: dict[tuple[int, int], int] = {}
    base = 9 * mc
    for i in range(1, mc):
        for j in range(i):
            y_vertex[(i, j)] = base
            labels[base] = f"pair{i + 1}_{j + 1}"
            base += 1
    chain = tuple(range(base, base + k - 3))
    for r, v in enumerate(chain):
        labels[v] = f"chain{r + 1}"
    base += k - 3

    edges: list[tuple[int, ...]] = []
    for i in range(mc):
        lit = [9 * i + p for p in range(3)]
        mid = [9 * i + 3 + p for p in range(3)]
        cap = [9 * i + 6 + p for p in range(3)]
        edges.append((lit[0], lit[1]))
        edges.append((lit[0], lit[2]))
        edges.append((lit[1], lit[2]))
        for p in range(3):
            edges.append(tuple(sorted((mid[p], lit[p]))))
        for p in range(3):
            edges.append(tuple(sorted((cap[p], mid[p], lit[p]))))
    for i in range(1, mc):
        for j in range(i):
            y = y_vertex[(i, j)]
            for p in range(3):
                for q in range(3):
                    if formula.clauses[i][p] == -formula.clauses[j][q]:
                        continue
                    edges.append(
                        tuple(sorted((9 * i + 6 + p, 9 * j + 6 + q, y)))
                    )
    edges.append(tuple(sorted((chain[0], *y_vertex.values()))))
    for r in range(len(chain) - 1):
        edges.append((chain[r], chain[r + 1]))
    graph = Hypergraph(base, edges, labels)
    return SatRadiusCertificate(
        instance=graph, source=formula, y_vertex=y_vertex, chain=chain
    )


# ---------------------------------------------------------------------------
# Threshold transformations


def threshold_add_shared(
    graph: Hypergraph, thresholds: Thresholds = None
) -> tuple[Hypergraph, tuple[int, ...]]:
    """Append one shared fresh vertex to every edge, raising each threshold.

    The minimum core size grows by exactly one (the fresh vertex must seed).
    """
    t = resolve_thresholds(graph, thresholds)
    s = graph.n
    labels = dict(graph.labels)
    labels[s] = "shared"
    edges = [(*e, s) for e in graph.edges]
    return Hypergraph(graph.n + 1, edges, labels), tuple([x + 1 for x in t])


def threshold_add_per_edge(
    graph: Hypergraph, thresholds: Thresholds = None
) -> tuple[Hypergraph, tuple[int, ...]]:
    """Append a distinct fresh vertex to every edge, thresholds unchanged.

    The minimum core size is preserved.
    """
    t = resolve_thresholds(graph, thresholds)
    labels = dict(graph.labels)
    edges = []
    for i, e in enumerate(graph.edges):
        tag = graph.n + i
        labels[tag] = f"tag{i + 1}"
        edges.append((*e, tag))
    return Hypergraph(graph.n + graph.m, edges, labels), t


# ---------------------------------------------------------------------------
# Source instance text formats


def read_setcover(text: str) -> SetCoverInstance:
    """Parse ``p sc <|U|> <|S|>`` plus one 1-based ``s`` line per set."""
    sets: list[frozenset[int]] = []
    for line_no, kind, nums in _records(text, ("s",), ("sc", 2)):
        if kind == "p":
            head, (universe, count) = line_no, nums
        else:
            sets.append(frozenset(_counted(line_no, nums, universe)))
    if count != len(sets):
        raise HceParseError(head, f"header declares {count} sets, file has {len(sets)}")
    try:
        return SetCoverInstance(universe, tuple(sets))
    except ValueError as exc:
        raise HceParseError(head, str(exc)) from None


def read_minrep(text: str) -> MinrepInstance:
    """Parse ``p minrep <qA> <mA> <qB> <mB>`` plus 1-based ``e <a> <b>`` lines.

    A header declaring more than ``_MAX_DECLARED`` nodes, ``qA*mA + qB*mB``,
    is an error on its line."""
    edges: list[tuple[int, int]] = []
    for line_no, kind, nums in _records(text, ("e",), ("minrep", 4)):
        if kind == "p":
            if min(nums) < 1:
                raise HceParseError(line_no, "group counts and sizes must be positive")
            header, num_a, num_b = nums, nums[0] * nums[1], nums[2] * nums[3]
            if num_a + num_b > _MAX_DECLARED:
                raise HceParseError(
                    line_no, f"header declares {num_a + num_b} nodes, over {_MAX_DECLARED}"
                )
        elif len(nums) != 2 or not (1 <= nums[0] <= num_a and 1 <= nums[1] <= num_b):
            raise HceParseError(
                line_no, f"edge needs endpoints in [1, {num_a}] and [1, {num_b}]"
            )
        else:
            edges.append((nums[0] - 1, nums[1] - 1))
    return MinrepInstance(*header, tuple(edges))


def read_cnf(text: str) -> CnfFormula:
    """Parse DIMACS-style CNF; every clause needs three distinct literals."""
    clauses: list[tuple[int, int, int]] = []
    for line_no, kind, nums in _records(text, ("",), ("cnf", 2)):
        if kind == "p":
            head, (num_vars, declared) = line_no, nums
            continue
        lits = nums[:-1]
        if nums[-1:] != [0]:
            raise HceParseError(line_no, "clause must end with 0")
        if len(lits) != 3 or len(set(lits)) != 3:
            raise HceParseError(line_no, "clause needs three distinct literals")
        if any(lit == 0 or abs(lit) > num_vars for lit in lits):
            raise HceParseError(line_no, "literal out of range")
        clauses.append((lits[0], lits[1], lits[2]))
    if declared != len(clauses):
        raise HceParseError(
            head, f"header declares {declared} clauses, file has {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))
