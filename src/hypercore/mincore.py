"""Minimum-core search: linear-time peeling and the parameterized extension.

:func:`peel_nm` repeatedly strips, round by round, every edge that has a
degree-one vertex, removing one such vertex from the candidate core per
edge.  When it consumes all edges it has found a core of size ``n - m``
whose radius equals the number of rounds, and that radius is optimal among
all cores of that size; when some residual has no degree-one vertex, no
core of size ``n - m`` exists at all.

:func:`mincore_fpt` lifts this to cores of size ``n - m + a``.  It peels
the whole instance once to its residual edges ``R``, the ones degree-one
peeling cannot remove.  Whether deleting an ``a``-subset ``D`` of ``R``
leaves a peelable instance depends only on ``R - D`` (lemma 3 of
:func:`mincore_fpt`), and ``R - D`` strips to nothing exactly when ``D``
is a core of ``R``'s dual ``R*`` (lemma 8): one vertex per residual edge
and one edge per vertex of ``R``, holding the residual edges at it, under
default thresholds.  Stripping the one edge left at a degree-one vertex
is firing that vertex's dual edge.  So the kernel, built once per search,
is ``R*``, and every deletion is decided on it by the oracle's closure
loop.

The search starts at ``|R| - |V(R)| + c2(R)``, where ``c2`` counts the
components of ``R`` with no size-1 edge (lemma 6'); for a residual of
two-vertex edges that is the least level with a success.  A vertex of
``R`` that lies in exactly two residual edges puts both in the same
closures; joining such pairs splits ``R`` into classes (lemma 9), and a
success at the first level holds at most one member of a class.  The
prefix walker the oracle also uses, ``propagation._cores``, makes the
subsets of classes in lexicographic order and extends the closure of
each prefix by the class's least member; a subset that extends a prefix
by a member its closure already holds is passed over, as in the oracle's
minimum blocks, and so is one that takes, after an earlier sibling
prefix with no success under it, a member of that prefix's closure, as
in the oracle's shadows.  Each class-level success stands for every
choice of one member per class, and only these deletions touch the
whole instance: each is peeled by :func:`peel_nm`'s loop from a start
state built once per search, and the deleted edges are re-inserted
(which may add one final layer) to score the radius, once for each
distinct core a level peels to.  Each is scored on its own by
``propagation._core_radius``, not in the oracle's bit-parallel batches
(``propagation._radii``), because a level scores few cores: over 300
searches of random instances with 24 vertices and 22 edges of 2 or 3
vertices at ``a_max = 3``, the 268 levels that score any core score 3.2
distinct cores on average and 15 at most, and scoring each level as one
batch took 17.5 ms against 10.2 ms core by core (Python 3.11, one Xeon
core).  A batch pays off only from about 10 to 14 cores.  The choices
do not come in lexicographic order, so the least ``(radius, deleted)``
is taken explicitly; :func:`peel_nm` confirms the winner's core.  With a
pool, the calling process still walks each level once, and the workers
score its class-level successes in batches of 256, at most two batches
per worker in flight; the least of the batches' bests is the serial
answer.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Optional, Sequence

from .hypergraph import Hypergraph, default_thresholds
from .propagation import _base_state, _core_radius, _cores

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
    round ``r - i`` of the peeling.  Edge ``e`` activates the vertex whose
    ``credit`` is ``e`` in the core's :func:`~.propagation.propagate` trace.
    """

    core: frozenset[int]
    layers: list[tuple[int, ...]]

    @property
    def radius(self) -> int:
        return len(self.layers)


@dataclass
class MinCoreResult:
    core: frozenset[int]
    radius: int
    deleted_edges: tuple[int, ...]
    parameter_a: int


def _start_state(graph: Hypergraph):
    """The peel's start state on ``graph``: degrees, edge-index sums, degree-one vertices."""
    deg = list(map(len, graph._incidence))
    return deg, list(map(sum, graph._incidence)), [v for v, d in enumerate(deg) if d == 1]


def _peel(edges, deg, sums, frontier, dead, ends=None) -> list[int]:
    """Peel degree-one vertices in synchronous rounds, ``dead`` left out.

    Runs from a state as :func:`_start_state` builds it, changing ``deg``
    and ``sums`` in place but not ``frontier``.  Each round removes every
    alive edge that has a degree-one vertex and credits it with the
    smallest such vertex, until none is left.  Returns the credited
    vertices in peeling order, each of which keeps the index of its edge
    in ``sums``; when ``ends`` is a list, each round appends the number
    of vertices credited so far.

    While ``v`` has an edge, ``sums[v]`` is the sum of the indices of its
    alive edges: an edge holds ``v`` at most once, and its index is added
    once, when the state is built, and subtracted once, when the edge is
    deleted or peeled and ``v`` keeps another.  So a degree-one vertex's
    sum is its one edge, duplicate edges having distinct indices, and no
    incidence list is scanned.  (An XOR would do the same; the built-in
    ``sum`` builds the state in C.)

    A round walks the ascending frontier, which holds every degree-one
    vertex: first those of the start, then those whose degree fell to 1
    in the round before.  Each edge goes to the first one seen on it, the
    smallest; a frontier vertex at degree 0 has no edge left by its turn.
    """
    fallen = []
    for ei in dead:
        for u in edges[ei]:
            deg[u] = d = deg[u] - 1
            if d:
                sums[u] -= ei
                if d == 1:
                    fallen.append(u)
    frontier = sorted(frontier + fallen)
    victims: list[int] = []
    while frontier:
        fallen = []
        for v in frontier:
            if deg[v]:
                ei = sums[v]
                victims.append(v)
                for u in edges[ei]:
                    deg[u] = d = deg[u] - 1
                    if d:
                        sums[u] -= ei
                        if d == 1:
                            fallen.append(u)
        if ends is not None:
            ends.append(len(victims))
        fallen.sort()
        frontier = fallen
    return victims


def peel_nm(graph: Hypergraph, deleted: Sequence[int] = ()) -> PeelResult:
    """Find a core of size ``n - m`` with optimal radius, or fail.

    ``deleted`` lists edge indices to leave out.  The peel then runs on
    ``graph`` without those edges and finds the core a rebuilt subgraph
    would give, of size ``n`` minus the edges kept; ``layers`` keeps the
    edge indices of ``graph``.

    Raises :class:`NoCoreOfSizeNM` when no such core exists.  Runs in time
    linear in the total incidence size.
    """
    n, m = graph.n, graph.m
    dead = set(deleted)
    if dead and (min(dead) < 0 or max(dead) >= m):
        raise ValueError(f"deleted edge index outside [0, {m})")
    if m - len(dead) > n:
        raise NoCoreOfSizeNM()
    deg, sums, frontier = _start_state(graph)
    ends: list[int] = []
    victims = _peel(graph.edges, deg, sums, frontier, dead, ends)
    if len(victims) < m - len(dead):
        raise NoCoreOfSizeNM()
    credit = list(map(sums.__getitem__, victims))
    layers = [tuple(sorted(credit[lo:hi])) for lo, hi in zip([0, *ends], ends) if lo < hi]
    core = set(range(n))
    core.difference_update(victims)
    return PeelResult(core=frozenset(core), layers=layers[::-1])


def _residual(graph: Hypergraph, state) -> list[int]:
    """Sorted indices of the edges that degree-one peeling cannot remove,
    peeled from copies of ``state``, the start state of ``graph``."""
    deg, sums, frontier = state
    sums = sums[:]
    peeled = {sums[v] for v in _peel(graph.edges, deg[:], sums, frontier, ())}
    return [i for i in range(graph.m) if i not in peeled]


def _least_members(size: int, groups) -> list[int]:
    """For each item of ``range(size)``, the smallest item of its class,
    where each of ``groups`` joins its items into one class: a union-find
    whose roots are the smallest members."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for group in groups:
        r = find(group[0])
        for y in group[1:]:
            s = find(y)
            if s < r:
                parent[r] = r = s
            elif s > r:
                parent[s] = r
    return [find(x) for x in range(size)]


class _Kernel:
    """The dual ``R*`` of the residual ``R`` of ``graph``, built once per
    search.

    Vertex ``i`` of ``dual`` is edge ``residual[i]`` of ``graph``, and each
    vertex ``v`` of ``V(R)`` gives ``dual`` one edge: the ``i`` for which
    ``residual[i]`` holds ``v``.  ``base`` is the closure state of the empty
    set in ``dual`` under default thresholds: by lemma 1 ``R`` has no
    degree-one vertex, so no dual edge fires in it.

    ``start`` is the first level that can hold a success,
    ``max(0, |R| - |V(R)| + c2(R))`` (lemma 6' of :func:`mincore_fpt`);
    the components of ``R`` on ``V(R)`` are those of ``dual``'s vertices
    joined by its edges.  ``classes`` holds the classes of lemma 9: the
    vertices of ``dual`` joined by its two-member edges, each an ascending
    tuple, in the order of their smallest members, ``reps``, which
    represent them in the walk.  ``R`` is sorted, so the lexicographic
    order of the subsets of ``reps`` is their order among the subsets of
    ``R``.
    ``state`` is the peel's start state on ``graph``, built once and peeled
    in copies, first to find ``R``, and ``vertices`` its vertex set.
    """

    __slots__ = (
        "graph", "residual", "dual", "base", "thresholds", "start", "classes", "reps", "state",
        "vertices",
    )

    def __init__(self, graph: Hypergraph):
        self.state = _start_state(graph)
        self.residual = residual = _residual(graph, self.state)
        at: dict[int, list[int]] = {}
        for i, ei in enumerate(residual):
            for v in graph.edges[ei]:
                at.setdefault(v, []).append(i)
        self.graph = graph
        self.dual = dual = Hypergraph(len(residual), at.values())
        t = default_thresholds(dual)
        if 0 in t:
            raise RuntimeError("the residual must have no degree-one vertex")
        self.base = _base_state(dual, t)
        self.thresholds = default_thresholds(graph)
        component = _least_members(dual.n, dual.edges)
        singles = {component[i] for i, ei in enumerate(residual) if len(graph.edges[ei]) == 1}
        c2 = len(set(component)) - len(singles)
        self.start = max(0, dual.n - dual.m + c2)
        classes: dict[int, list[int]] = {}
        for i, r in enumerate(_least_members(dual.n, [e for e in dual.edges if len(e) == 2])):
            classes.setdefault(r, []).append(i)
        self.classes = [tuple(members) for members in classes.values()]
        self.reps = [members[0] for members in classes.values()]
        self.vertices = frozenset(range(graph.n))

    def best(
        self, successes: Iterable[tuple[int, ...]]
    ) -> Optional[tuple[int, tuple[int, ...], frozenset[int]]]:
        """Smallest ``(radius, deleted, core)`` over the deletions of
        residual edges that take one member of each class of one of
        ``successes``; ``deleted`` holds the edge indices of ``graph``,
        ascending, and ``core`` is :func:`peel_nm`'s core without them.
        None when there is none.

        Each success is a subset of ``range(len(classes))``, ascending,
        whose ``reps`` are a core of ``dual`` (lemma 8 of
        :func:`mincore_fpt`), so that deleting them strips ``R`` to
        nothing: ``propagation._cores`` yields them, on ``dual`` from
        ``base``, a level at a time.  Every member choice of a success
        succeeds, since the members of a class lie in the same closures,
        and when the level below has no success these choices are all the
        successes of the level (lemma 9).  Each is peeled from a copy of
        ``state``, and its core, ``vertices`` less the credited vertices,
        is scored by propagating it over all of ``graph``, once per call
        for each distinct core.  The member choices do not come in
        lexicographic order, so the least ``(radius, deleted)`` is taken
        explicitly.
        """
        graph, residual, classes, t = self.graph, self.residual, self.classes, self.thresholds
        deg, sums, frontier = self.state
        radii: dict[frozenset[int], int] = {}
        best = None
        for combo in successes:
            for choice in product(*[classes[c] for c in combo]):
                deleted = tuple(sorted([residual[i] for i in choice]))
                victims = _peel(graph.edges, deg[:], sums[:], frontier, deleted)
                if len(victims) != graph.m - len(deleted):
                    raise RuntimeError("a deletion that strips the kernel must peel the instance")
                core = self.vertices.difference(victims)
                radius = radii.get(core)
                if radius is None:
                    radius = _core_radius(graph, core, t)
                    if radius is None:
                        raise RuntimeError("peeled core must stay a core after re-insertion")
                    radii[core] = radius
                if best is None or (radius, deleted) < best[:2]:
                    best = (radius, deleted, core)
        return best


_POOL_KERNEL: Optional[_Kernel] = None


def _pool_init(kernel: _Kernel) -> None:
    global _POOL_KERNEL
    _POOL_KERNEL = kernel


def _pool_run(batch: list[tuple[int, ...]]):
    if _POOL_KERNEL is None:
        raise RuntimeError("pool worker ran before _pool_init")
    return _POOL_KERNEL.best(batch)


_BATCH = 256  # class-level successes per pool task


def _pool_bests(pool, successes: Iterator[tuple[int, ...]], limit: int):
    """Yield the best of each batch of ``_BATCH`` consecutive ``successes``,
    scored in ``pool``, in order, with at most ``limit`` batches in flight,
    so memory stays flat however many successes a level holds (K10 at
    ``a = 36`` has 10^8)."""
    pending = deque()
    for batch in iter(lambda: list(islice(successes, _BATCH)), []):
        if len(pending) == limit:
            yield pending.popleft().result()
        pending.append(pool.submit(_pool_run, batch))
    yield from (future.result() for future in pending)


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
    The output is independent of ``jobs``: ``min(jobs, CPUs available)``
    workers run the deletions, in a process pool when there are two or
    more, and ``jobs < 1`` raises ``ValueError``.  A pool pays off only on
    long searches.  On 2 cores, 20 searches of ``generate_random(24, 22,
    2, 3, s)`` at ``a_max = 3`` took 0.01 s serially and 0.11-0.13 s with
    ``jobs=2``, and ``generate_random(40, 44, 2, 3, 1)`` at ``a_max = 12``
    took 25 s and 13-17 s.

    Only deletions inside the residual ``R`` (:func:`_residual`) are tried,
    starting at ``a = max(0, |R| - |V(R)| + c2(R))``, where ``V(R)`` is the
    set of vertices of ``R``'s edges and ``c2(R)`` counts the components
    of ``R`` with no size-1 edge.  This gives the same answer as trying
    every ``a``-subset of all ``m`` edges from ``a = 0``:

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

    6'. Write ``c2(H)`` for the number of connected components of ``H``,
       taken on the vertex set ``V(R)``, that hold no size-1 edge; a
       vertex in no edge of ``H`` is such a component.  Let ``R - D`` peel,
       one edge at a time, and let ``K`` be a component that
       ``c2(R - D)`` counts.  A vertex claimed before the last edge ``e``
       of ``K`` is peeled had degree one then, so it lies in no edge alive
       afterwards, ``e`` among them: no vertex of ``e`` is claimed yet.
       ``e`` claims one, and as ``|e| >= 2`` another stays unclaimed; a
       component with no edge claims nothing.  So each such ``K`` has
       fewer edges than vertices, and ``|R| - a <= |V(R)| - c2(R - D)``.
       The components of ``R - D`` refine those of ``R``, and a component
       of ``R`` with no size-1 edge splits into at least one with none, so
       ``c2(R - D) >= c2(R)``: no level ``a < |R| - |V(R)| + c2(R)`` has
       a success.  This start is exact, ``a*`` itself, when every edge of
       ``R`` has two vertices.  ``R`` is then a multigraph whose ``c2(R)``
       components have no degree-one vertex, and a graph peels iff it has
       no cycle: a forest with an edge has a leaf, and removing a leaf's
       edge leaves a forest, while the edges of a cycle (two parallel edges
       among them) give its vertices degree two.  Keeping a spanning
       forest of each component, ``|V(R)| - c2(R)`` edges, and deleting
       the rest peels.

    7. For ``D'`` a subset of ``D``,
       ``core2(R - D) = core2(core2(R - D') - (D - D'))``: this is 3
       applied to the instance ``R - D'``, whose ``core2`` is
       ``core2(R - D')``, and the deletion ``D - D'``.  So the strip of a
       deletion prefix can be extended edge by edge, and an edge the
       prefix already stripped changes nothing.
    8. ``R - D`` strips to nothing iff ``D`` is a core of ``R*``, the dual
       of ``R``: vertex ``i`` of ``R*`` is the ``i``-th edge of the sorted
       ``R``, and each vertex ``v`` of ``V(R)`` gives ``R*`` one edge
       ``E(v)``, the edges of ``R`` at ``v``, which fires under default
       thresholds once at most one of its members is inactive.  A set
       ``C`` of edges of ``R`` holds ``D`` and is closed under firing (no
       ``E(v)`` has exactly one member outside ``C``) iff its complement
       ``Y`` lies inside ``R - D`` and has no degree-one vertex: the
       members of ``E(v)`` outside ``C`` are the edges of ``Y`` at ``v``.
       The closure of ``D`` is the least such ``C``, so its complement is
       the largest such ``Y``, ``core2(R - D)``.  Every edge of ``R`` has
       a vertex, so every vertex of ``R*`` lies in an edge of ``R*``, and
       ``D`` is a core iff its closure is everything, that is, iff
       ``core2(R - D)`` is empty.  Stripping the one edge ``e`` left at a
       degree-one vertex ``v`` is the firing of ``E(v)``, which activates
       ``e``: the strip and the closure loop are one computation, and 7
       is the closure property ``cl(D) = cl(cl(D') | D)``.  ``R*`` has
       ``|R|`` vertices and ``|V(R)|`` edges, so the start level of 6 is
       ``max(0, n - m)`` taken on ``R*``, and the components of ``R`` are
       those of ``R*``'s vertices joined by its edges.
    9. A vertex ``v`` of ``R`` in exactly two residual edges gives ``R*``
       a two-member edge ``E(v)``, which fires once either member is
       active, so a closed set holding one member holds both.  Join the
       members of these edges into classes: the members of a class lie in
       the same closed sets, and swapping a member of ``D`` for another of
       its class leaves ``cl(D)`` unchanged.  At a level ``a`` where
       ``a - 1`` has no success, no success ``D`` holds two members of one
       class: one of them, ``y``, lies in ``cl(D - y)``, so
       ``cl(D - y) = cl(D)`` and ``D - y`` would succeed at ``a - 1``.  So
       the successes at such a level are exactly the choices of one member
       from each class of an ``a``-subset of classes whose representatives
       (least members) succeed.  When every edge of ``R`` has two
       vertices, there are at most ``3 a*`` classes.  A class is then a
       maximal chain of edges through vertices of degree 2 in ``R``, which
       has no vertex of degree 1.  A component that is one cycle of such
       vertices is one class, and by 6' it adds 1 to ``a*``.  In any other
       component ``K``, suppressing the degree-2 vertices turns each class
       into one edge, perhaps a loop, of a multigraph on the ``V'``
       vertices of degree at least 3, so its ``E'`` classes have
       ``2 E' >= 3 V'``.  Suppression keeps the cyclomatic number
       ``|edges| - |vertices| + 1``, so ``K`` adds
       ``E' - V' + 1 > E' / 3`` to ``a*`` by 6'.  A level thus walks at
       most ``C(3 a*, a)`` subsets of classes, whatever ``n`` and ``|R|``.

    So the levels skipped and the deletions left out hold no success, and
    the successful deletions at ``a*`` are the same.  By 3 and 8 each
    deletion is decided on ``R*`` alone: it succeeds iff it is a core of
    ``R*``, so a failing deletion never touches ``G``.  The walker
    (``propagation._cores``) makes the ``a``-subsets of the classes in
    lexicographic order and decides each by its representatives; by 7 the
    closure of a subset starts from the closure of the prefix it shares
    with the subset tried before it.  By 9 each class-level success
    expands into its member choices, and each of these deletions ``D`` is
    scored as before: peel ``G - D`` (with :func:`peel_nm`'s loop, from a
    copy of a start state built once per search, so that ``peel_nm``
    itself peels only the winner, to confirm it), re-insert, propagate on
    ``G``.  The radius is a function of ``G``, the core and the
    thresholds, so a core that several deletions peel to is propagated
    once per level, or once per batch of a level with a pool.  The
    expansion does not come in the lexicographic order of the deleted
    tuples, so the search takes the least ``(radius, deleted)``
    explicitly: the pair that a scan of all deletions in lexicographic
    order, keeping the first least radius, returns.

    The walker passes over every subset ``D`` that extends a prefix ``P``
    by a representative ``x`` already in the closure of ``P``, that is,
    stripped by ``R - P``.  Then ``D`` lies inside ``cl(D - x)``, which
    holds ``P`` and so ``x``, hence ``cl(D) = cl(D - x)``: if ``D``
    succeeds, so does ``D - x``, at level ``a - 1``.  The search runs
    level ``a`` only when level ``a - 1`` holds no success: at the start
    level, level ``a - 1`` lies below it, where 6' rules every success
    out, and above it, level ``a - 1`` ran and found none, its walk
    holding the classes of every success by 9.  The walker also passes
    over the representatives in a shadow, the closure of an earlier
    sibling prefix ``P + x`` under which no subset succeeds: a subset
    ``D`` of ``P``, later representatives and one, ``y``, stripped by
    ``R - (P + x)``, has ``cl(D)`` inside ``cl(D - y + x)``, which is not
    everything (the oracle's skip 3 on ``R*``).  A prefix counts as
    holding no success only when the walk yielded nothing under it and
    passed over nothing there that could succeed, so this skip needs no
    condition on the level.  So neither the skips, the oracle's skips 2
    and 3 on ``R*``, nor the classes leave out a success at any level the
    search runs.

    With ``w`` workers, the calling process walks each level as the
    serial search does, and the workers score its class-level successes
    in batches of consecutive ones, at most ``2 w`` batches in flight, so
    a level's successes are never all held at once.  The batches partition
    the successes, and the walk is the serial one, so ``jobs`` cannot
    change a verdict or a walk.  Each worker expands the successes of its
    batch and keeps the radii of that batch.  Each deletion expands from
    one subset of classes alone, so no two deletions share a ``deleted``
    tuple, and the least ``(radius, deleted)`` over the batches is the
    serial answer.
    """
    if a_max < 0:
        raise ValueError("a_max must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    kernel = _Kernel(graph)
    workers = min(jobs, _cpu_count())
    pool = nullcontext()
    if workers > 1:  # imported only here: a run with no pool never loads it
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers, initializer=_pool_init, initargs=(kernel,))
    with pool:
        for a in range(kernel.start, a_max + 1):
            successes = _cores(kernel.dual, kernel.base, kernel.reps, a, True)
            if workers == 1:
                best = kernel.best(successes)
            else:
                best = min(filter(None, _pool_bests(pool, successes, 2 * workers)), default=None)
            if best is not None:
                radius, deleted, core = best
                if peel_nm(graph, deleted).core != core:
                    raise RuntimeError("the kernel's core must be the one peel_nm finds")
                return MinCoreResult(core=core, radius=radius, deleted_edges=deleted, parameter_a=a)
    raise NotFoundWithin(a_max)
