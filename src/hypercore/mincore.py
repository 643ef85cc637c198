"""Minimum-core search: linear-time peeling and the parameterized extension.

:func:`peel_nm` repeatedly strips, round by round, every edge that has a
degree-one vertex, removing one such vertex from the candidate core per
edge.  When it consumes all edges it has found a core of size ``n - m``
whose radius equals the number of rounds, and that radius is optimal among
all cores of that size; when some residual has no degree-one vertex, no
core of size ``n - m`` exists at all.

:func:`mincore_fpt` lifts this to cores of size ``n - m + a``.  It strips
the whole instance once to its residual edges ``R``, the ones degree-one
peeling cannot remove, and re-indexes ``R`` once as a small hypergraph of
its own, the kernel.  Whether deleting an ``a``-subset ``D`` of ``R``
leaves a peelable instance depends only on ``R - D`` (lemma 3 of
:func:`mincore_fpt`), so every deletion is decided by stripping the
kernel alone.  Consecutive deletions in lexicographic order share a
prefix, and stripping commutes with taking more edges out (lemma 7), so
the kernel strips each deletion prefix once and extends it by one edge,
stripping only around that edge; the prefix walker it shares with the
oracle, ``propagation._walk``, makes the deletions in that order.  One
in-place strip routine serves the
residual, the kernel and every extension.  Only the deletions that
succeed touch the whole instance: :func:`peel_nm` peels it without them,
and the deleted edges are re-inserted (which may add one final layer) to
score the radius.  A pool splits each level into one strided part per
worker, and the least of the parts' bests is the serial answer.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence

from .hypergraph import Hypergraph, default_thresholds
from .propagation import _core_radius, _walk

PEEL_FAILURE_MESSAGE = "no core of size n-m possible"


class NoCoreOfSizeNM(Exception):
    """Some residual hypergraph had no degree-one vertex."""

    def __init__(self):
        super().__init__(PEEL_FAILURE_MESSAGE)


class NotFoundWithin(Exception):
    """No core of size ``n - m + a`` exists for any ``a <= a_max``."""

    def __init__(self, a_max: int):
        super().__init__(f"no core of size n-m+a possible for any a <= {a_max}")
        self.a_max = a_max


@dataclass
class PeelResult:
    """Core of size ``n - m`` plus the layer structure the peeling certifies.

    ``layers[i]`` lists the edges of layer ``i + 1``: the edges deleted in
    round ``r - i`` of the peeling.  ``assimilator[e]`` is the vertex that
    was removed from the core when ``e`` was processed; it is the vertex
    ``e`` activates when the core propagates.
    """

    core: frozenset[int]
    layers: list[tuple[int, ...]]
    assimilator: dict[int, int]

    @property
    def radius(self) -> int:
        return len(self.layers)


@dataclass
class MinCoreResult:
    core: frozenset[int]
    radius: int
    deleted_edges: tuple[int, ...]
    parameter_a: int


def _peel(graph: Hypergraph, dead: set[int]):
    """Peel degree-one vertices in synchronous rounds, ``dead`` left out.

    Each round removes every alive edge that has a degree-one vertex and
    credits it with the smallest such vertex; the rounds run until no
    degree-one vertex is left.  Returns ``(rounds, victims, alive)``: the
    rounds in peeling order, each an ascending edge tuple, ``victims[e]``
    the vertex credited to edge ``e``, and the mask of edges left alive.

    At the start of a round the frontier is exactly the set of degree-one
    vertices, in ascending order.  Each has one alive edge, so walking the
    frontier in order and giving every edge to the first frontier vertex
    seen on it credits the smallest degree-one vertex; a frontier vertex
    whose degree is already 0 lost its edge to a smaller one this round.
    Every frontier vertex ends the round at degree 0, so the next frontier
    is the vertices whose degree fell to 1 and stayed there (a degree can
    fall 2 -> 1 -> 0 within one round).
    """
    edges, incidence = graph.edges, graph._incidence
    deg = graph.degrees()
    alive = bytearray(b"\x01") * graph.m
    for ei in dead:
        alive[ei] = 0
        for u in edges[ei]:
            deg[u] -= 1
    victims: dict[int, int] = {}
    rounds: list[tuple[int, ...]] = []
    frontier = [v for v, d in enumerate(deg) if d == 1]
    while frontier:
        batch = []
        fallen = []
        for v in frontier:
            if not deg[v]:
                continue
            for ei in incidence[v]:
                if alive[ei]:
                    break
            victims[ei] = v
            batch.append(ei)
            alive[ei] = 0
            for u in edges[ei]:
                d = deg[u] - 1
                deg[u] = d
                if d == 1:
                    fallen.append(u)
        batch.sort()
        rounds.append(tuple(batch))
        frontier = [u for u in fallen if deg[u] == 1]
        frontier.sort()
    return rounds, victims, alive


def peel_nm(graph: Hypergraph, deleted: Sequence[int] = ()) -> PeelResult:
    """Find a core of size ``n - m`` with optimal radius, or fail.

    ``deleted`` lists edge indices to leave out.  The peel then runs on
    ``graph`` without those edges and finds the core a rebuilt subgraph
    would give, of size ``n`` minus the edges kept; ``layers`` and
    ``assimilator`` keep the edge indices of ``graph``.

    Raises :class:`NoCoreOfSizeNM` when no such core exists.  Runs in time
    linear in the total incidence size.
    """
    n, m = graph.n, graph.m
    dead = set(deleted)
    if dead and (min(dead) < 0 or max(dead) >= m):
        raise ValueError(f"deleted edge index outside [0, {m})")
    if m - len(dead) > n:
        raise NoCoreOfSizeNM()
    rounds, victims, alive = _peel(graph, dead)
    if 1 in alive:
        raise NoCoreOfSizeNM()
    rounds.reverse()
    core = frozenset(range(n)).difference(victims.values())
    return PeelResult(core=core, layers=rounds, assimilator=victims)


def _strip(graph: Hypergraph, deg: list[int], alive: bytearray, left: int, seeds) -> int:
    """Strip degree-one vertices from ``graph`` in place; return the number
    of edges left alive.

    ``alive`` masks the edges still present, ``left`` counts them and
    ``deg[v]`` counts those at ``v``; all three describe one state, which
    the strip updates.  Every degree-one vertex of that state must be among
    ``seeds``.  Edges go one at a time, in stack order: by lemma 1 of
    :func:`mincore_fpt` every order leaves the same edges, ``core2``.
    """
    edges, incidence = graph.edges, graph._incidence
    stack = list(seeds)
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        for ei in incidence[v]:
            if alive[ei]:
                break
        alive[ei] = 0
        left -= 1
        for u in edges[ei]:
            deg[u] -= 1
            if deg[u] == 1:
                stack.append(u)
    return left


def _residual(graph: Hypergraph) -> list[int]:
    """Sorted indices of the edges that degree-one peeling cannot remove."""
    deg = graph.degrees()
    alive = bytearray(b"\x01") * graph.m
    _strip(graph, deg, alive, graph.m, [v for v, d in enumerate(deg) if d == 1])
    return [i for i, a in enumerate(alive) if a]


class _Kernel:
    """The residual ``R`` of ``graph`` as its own hypergraph, built once per
    search.

    Local edge ``i`` of ``local`` is edge ``residual[i]`` of ``graph`` with
    its vertices renumbered ascending over ``V(R)``.  ``R`` is sorted, so
    the lexicographic order of the subsets of local edges is the order of
    the subsets of ``R``.  ``base`` is the strip state of ``local`` with
    nothing deleted: by lemma 1 ``R`` has no degree-one vertex to strip.
    """

    __slots__ = ("graph", "residual", "local", "base", "thresholds")

    def __init__(self, graph: Hypergraph, residual: list[int]):
        spanned = sorted({v for ei in residual for v in graph.edges[ei]})
        index = {v: i for i, v in enumerate(spanned)}
        self.graph = graph
        self.residual = residual
        self.local = Hypergraph(
            len(spanned), [[index[v] for v in graph.edges[ei]] for ei in residual]
        )
        deg = self.local.degrees()
        if 1 in deg:
            raise RuntimeError("the residual must have no degree-one vertex")
        self.base = (deg, bytearray(b"\x01") * self.local.m, self.local.m)
        self.thresholds = default_thresholds(graph)

    def successes(self, a: int, part: int = 0, parts: int = 1):
        """Yield the ``a``-subsets of local edges whose deletion strips the
        kernel to nothing, in lexicographic order, among the deletions whose
        index in that order is ``part`` mod ``parts``.

        By lemma 7 of :func:`mincore_fpt`, the walker ``_walk`` extends the
        strip of each deletion prefix by one edge (:meth:`_delete`), and
        every deletion under that prefix starts from it; a call starts from
        ``base``.  No subtree is skipped.
        """
        return _walk(self.local.m, a, self.base, self._delete, part, parts)

    def _delete(self, state, ei: int):
        """The strip state ``state`` with local edge ``ei`` also deleted, in
        a copy, or ``state`` itself when ``ei`` is already stripped."""
        deg, alive, left = state
        if not alive[ei]:
            return state
        local = self.local
        edge = local.edges[ei]
        deg = deg[:]
        alive = alive[:]
        alive[ei] = 0
        for u in edge:
            deg[u] -= 1
        return deg, alive, _strip(local, deg, alive, left - 1, edge)

    def best(
        self, a: int, part: int = 0, parts: int = 1
    ) -> Optional[tuple[int, tuple[int, ...], frozenset[int]]]:
        """Smallest ``(radius, deleted, core)`` over the successful deletions
        of ``a`` local edges whose lexicographic index is ``part`` mod
        ``parts``; ``deleted`` holds the edge indices of ``graph``
        and ``core`` is :func:`peel_nm`'s core without them.  None when none
        succeeds.

        Each deletion is decided on the kernel by :meth:`successes`; a
        success is peeled on ``graph`` and scored by propagating its core
        over all of ``graph``.
        """
        graph, residual = self.graph, self.residual
        best = None
        for combo in self.successes(a, part, parts):
            deleted = tuple([residual[i] for i in combo])
            try:
                core = peel_nm(graph, deleted).core
            except NoCoreOfSizeNM:
                raise RuntimeError("a deletion that strips the kernel must peel the instance")
            radius = _core_radius(graph, core, self.thresholds)
            if radius is None:
                raise RuntimeError("peeled core must stay a core after re-insertion")
            if best is None or radius < best[0]:
                best = (radius, deleted, core)
        return best


_POOL_KERNEL: Optional[_Kernel] = None


def _pool_init(kernel: _Kernel) -> None:
    global _POOL_KERNEL
    _POOL_KERNEL = kernel


def _pool_run(task: tuple[int, int, int]):
    if _POOL_KERNEL is None:
        raise RuntimeError("pool worker ran before _pool_init")
    return _POOL_KERNEL.best(*task)


def _cpu_count() -> int:
    """CPUs this process may run on: a pool never needs more workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mincore_fpt(graph: Hypergraph, a_max: int, jobs: int = 1) -> MinCoreResult:
    """Minimum core, parameterized by ``a``, with the best radius when
    ``a = 0`` and within one round of the best radius when ``a > 0``.

    Tries ``a = 0, 1, ...`` in order; at the first ``a`` with any
    successful edge deletion ``D`` it returns the least radius, over all
    successful deletions, of the core :func:`peel_nm` finds without ``D``,
    breaking radius ties by the lexicographically smallest deleted index
    tuple.  Another core of the same size can have a radius one round
    smaller: on ``generate_random(12, 11, 2, 4, 324)`` the search returns
    radius 4 at ``a = 2``, and the oracle finds a size-3 core of radius 3.
    The output is independent of ``jobs``.
    ``min(jobs, CPUs available)`` workers run the deletions, in a process
    pool when there are two or more, and ``jobs < 1`` raises
    ``ValueError``.

    Only deletions inside the residual ``R`` (:func:`_residual`) are tried,
    starting at ``a = max(0, |R| - |V(R)|)``, where ``V(R)`` is the set of
    vertices of ``R``'s edges.  This gives the same answer as trying every
    ``a``-subset of all ``m`` edges from ``a = 0``:

    Write ``core2(H)`` for the largest edge set of ``H`` in which no vertex
    has degree one (the union of two such sets is one, so a largest
    exists), and ``G - D`` for ``G`` without the edges ``D``.

    1. Peeling ends at ``core2``, in any order.  Every vertex of an edge
       of ``core2(H)`` lies in at least two of its edges, so it never has
       degree one while all of ``core2(H)`` is alive, and peeling never
       removes an edge of ``core2(H)``; when peeling stops, the alive
       edges have no degree-one vertex, so they lie inside ``core2(H)``.
       Hence ``H`` peels to nothing iff ``core2(H)`` is empty, and
       ``R = core2(G)``.
    2. ``core2`` is monotone: if ``F`` is a subset of ``H``, then
       ``core2(F)`` is a subset of ``H`` with no degree-one vertex, so it
       lies inside ``core2(H)``.
    3. ``core2(G - D) = core2(R - D)``.  By 2, ``core2(R - D)`` lies inside
       ``core2(G - D)``, which lies inside ``core2(G) = R``; being inside
       ``G - D`` too, it lies inside ``R - D`` and so inside
       ``core2(R - D)``.  Since ``R - D = R - (D & R)``, whether ``G - D``
       peels depends only on ``D & R``.
    4. Adding deletions never hurts: if ``D`` peels and ``D'`` contains
       ``D``, then ``core2(G - D')`` lies inside ``core2(G - D)``, which is
       empty, by 2.
    5. Let ``a*`` be the least ``|D|`` for which ``G - D`` peels.  Deleting
       all of ``R`` peels, by 3, so ``a* <= |R|``, and by 4 every level
       from ``a*`` to ``m`` has a success.  If ``D`` peels and
       ``|D| = a*``, then ``D & R`` peels by 3, and minimality forces
       ``D & R = D``: every successful deletion at ``a*`` lies inside
       ``R``.
    6. Each peeled edge claims a distinct vertex of its own, so a peelable
       edge set has no more edges than vertices.  For ``|D| = a`` the set
       ``R - D`` has at least ``|R| - a`` edges on at most ``|V(R)|``
       vertices, so by 3 no level ``a < |R| - |V(R)|`` has a success.

    7. For ``D'`` a subset of ``D``,
       ``core2(R - D) = core2(core2(R - D') - (D - D'))``: this is 3
       applied to the instance ``R - D'``, whose ``core2`` is
       ``core2(R - D')``, and the deletion ``D - D'``.  So the strip of a
       deletion prefix can be extended edge by edge; an edge the prefix
       already stripped changes nothing, and stripping after deleting an
       edge ``e`` starts from the vertices of ``e``, the only ones whose
       degree changed.

    So the levels skipped and the deletions left out hold no success, and
    the successful deletions at ``a*`` are the same.  By 3 each deletion is
    decided on ``R`` alone: it succeeds iff stripping ``R - D`` leaves no
    edge, so a failing deletion never touches ``G``.  By 7 the strip of
    ``R - D`` starts from the strip of the prefix ``D`` shares with the
    deletion tried before it.  Each success is scored as before: peel
    ``G - D``, re-insert, propagate on ``G``.  The walker
    (``propagation._walk``) makes the ``a``-subsets of the sorted ``R`` in
    lexicographic order, the order they have among all ``a``-subsets of
    ``range(m)``, so the radius tie-break picks the same tuple.

    With ``w`` workers, worker ``i`` strips the deletions of a level whose
    lexicographic index is ``i`` mod ``w``, starting from ``R`` itself, so
    ``jobs`` cannot change a verdict.  No two deletions share a ``deleted``
    tuple, so the least ``(radius, deleted)`` over the parts is the serial
    answer.
    """
    if a_max < 0:
        raise ValueError("a_max must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    kernel = _Kernel(graph, _residual(graph))
    workers = min(jobs, _cpu_count())
    if workers > 1:  # imported only here: a run with no pool never loads it
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(kernel,)
        )
    else:
        pool = nullcontext()
    with pool:
        for a in range(max(0, kernel.local.m - kernel.local.n), a_max + 1):
            if workers == 1:
                best = kernel.best(a)
            else:
                hits = pool.map(_pool_run, [(a, w, workers) for w in range(workers)])
                best = min((hit for hit in hits if hit is not None), default=None)
            if best is not None:
                radius, deleted, core = best
                return MinCoreResult(
                    core=core, radius=radius, deleted_edges=deleted, parameter_a=a
                )
    raise NotFoundWithin(a_max)
