"""The peeling loops as they were before the round loop was slimmed and
kernel strips were shared across deletion prefixes.

``_peel`` and ``_strip`` below are kept verbatim.  ``_peel`` took the
``min`` over each batch edge of its degree-one vertices, built the next
frontier from every vertex a round touched and kept ``alive`` as a list
of booleans.  ``_strip`` copied the degree template and stripped the
whole kernel again for every deletion.  ``test_peel_reference.py``
compares ``_peel`` with the package's round loop, and it and
``test_mincore.py`` compare ``_strip`` with the package's kernel, which
decides each deletion as a core of the residual's dual.
"""

from typing import Sequence

from hypercore.hypergraph import Hypergraph


def _peel(graph: Hypergraph, dead: set[int]):
    """Peel degree-one vertices in synchronous rounds, ``dead`` left out.

    Each round removes every alive edge that has a degree-one vertex and
    credits it with the smallest such vertex; the rounds run until no
    degree-one vertex is left.  Returns ``(rounds, victims, alive)``: the
    rounds in peeling order, each an ascending edge tuple, ``victims[e]``
    the vertex credited to edge ``e``, and the mask of edges left alive.
    """
    edges, incidence = graph.edges, graph._incidence
    deg = graph.degrees()
    alive = [True] * graph.m
    for ei in dead:
        alive[ei] = False
        for u in edges[ei]:
            deg[u] -= 1
    ptr = [0] * graph.n
    victims: dict[int, int] = {}
    rounds: list[tuple[int, ...]] = []
    frontier = [v for v, d in enumerate(deg) if d == 1]
    while frontier:
        batch = set()
        for v in frontier:
            ix = incidence[v]
            p = ptr[v]
            while not alive[ix[p]]:
                p += 1
            ptr[v] = p
            batch.add(ix[p])
        ordered = sorted(batch)
        for ei in ordered:
            victims[ei] = min(v for v in edges[ei] if deg[v] == 1)
        touched = set()
        for ei in ordered:
            alive[ei] = False
            for u in edges[ei]:
                deg[u] -= 1
                touched.add(u)
        frontier = [u for u in touched if deg[u] == 1]
        rounds.append(tuple(ordered))
    return rounds, victims, alive


def _strip(graph: Hypergraph, template: list[int], dead: Sequence[int] = ()) -> bytearray:
    """Strip degree-one vertices from ``graph`` without ``dead``; return the
    mask of the edges left alive.

    ``template`` is ``graph.degrees()``, computed once by the caller and
    copied here.  Edges go one at a time, in stack order: by lemma 1 of
    :func:`mincore_fpt` every order leaves the same edges, ``core2``.
    """
    edges, incidence = graph.edges, graph._incidence
    deg = template[:]
    alive = bytearray(b"\x01") * graph.m
    for ei in dead:
        alive[ei] = 0
        for u in edges[ei]:
            deg[u] -= 1
    stack = [v for v, d in enumerate(deg) if d == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        for ei in incidence[v]:
            if alive[ei]:
                break
        alive[ei] = 0
        for u in edges[ei]:
            deg[u] -= 1
            if deg[u] == 1:
                stack.append(u)
    return alive
