"""The peeling loops against the reference loops of ``reference_peel.py``.

``_peel`` must return equal ``(rounds, victims, alive)`` to the reference
round loop, and the kernel's prefix-shared verdicts must equal a fresh
reference strip of every deletion.
"""

import itertools
import random

import reference_peel
from hypercore import Hypergraph, generate_random
from hypercore import mincore
from conftest import messy_instance, seeded_family
from test_mincore import _kernel_family


def _peel_cases():
    """``(graph, dead)`` pairs: small messy instances with random deletions,
    size-1 edges on larger random ones, and single and double deletions
    inside the residual of ``mincore_fpt``-sized instances."""
    # vertex 1 has degree 2, and both its edges go in round 1
    cases = [(Hypergraph(3, [(0, 1), (1, 2)]), set())]
    for s in range(250):
        rng = random.Random(9_400_009 + s)
        g = messy_instance(rng)
        cases.append((g, set()))
        cases.append((g, {e for e in range(g.m) if rng.random() < 0.3}))
    for g in seeded_family(100, seed=39, n_hi=40, size_lo=1):
        cases.append((g, set()))
    for s in range(60):
        g = generate_random(24, 22, 2, 3, s)
        residual = mincore._residual(g)
        cases.append((g, set()))
        cases += [(g, {e}) for e in residual]
        cases += [(g, set(pair)) for pair in itertools.combinations(residual, 2)][:10]
    return cases


def _falls_twice_in_a_round(graph, dead, rounds):
    """Whether some vertex starts a round at degree 2 and loses both edges
    in it, so its degree falls 2 -> 1 -> 0 within the round."""
    gone = set(dead)
    for batch in rounds:
        hits = {}
        for ei in batch:
            for u in graph.edges[ei]:
                hits[u] = hits.get(u, 0) + 1
        for u, k in hits.items():
            if k == 2 and sum(ei not in gone for ei in graph.incident_edges(u)) == 2:
                return True
        gone.update(batch)
    return False


def test_peel_matches_reference_round_loop():
    cases = _peel_cases()
    assert len(cases) >= 400
    assert sum(bool(dead) for _, dead in cases) >= 200
    assert sum(len(set(g.edges)) < g.m for g, _ in cases) >= 40  # duplicate edges
    assert sum(any(len(e) == 1 for e in g.edges) for g, _ in cases) >= 40
    assert sum(min(g.degrees(), default=1) == 0 for g, _ in cases) >= 40  # isolated
    falls = 0
    for g, dead in cases:
        rounds, victims, alive = reference_peel._peel(g, set(dead))
        got = mincore._peel(g, set(dead))
        assert got[0] == rounds
        assert got[1] == victims
        assert list(got[2]) == [int(a) for a in alive]
        falls += _falls_twice_in_a_round(g, dead, rounds)
    assert falls >= 40


def test_prefix_shared_verdicts_match_fresh_reference_strip():
    """Every deletion at ``a <= 3`` (every level when ``|R| <= 10``) succeeds
    on the kernel iff a fresh reference strip of ``R - D`` leaves no edge,
    also when the deletions arrive as the strided parts of a pool, each
    taking every ``k``-th deletion."""
    decided = 0
    for g in _kernel_family():
        residual = mincore._residual(g)
        kernel = mincore._Kernel(g, residual)
        template = kernel.local.degrees()
        top = len(residual) if len(residual) <= 10 else 3
        for a in range(top + 1):
            combos = list(itertools.combinations(range(len(residual)), a))
            fresh = [c for c in combos if 1 not in reference_peel._strip(kernel.local, template, c)]
            assert list(kernel.successes(a)) == fresh
            chosen = set(fresh)
            for k in (2, 3, 7):
                for w in range(k):
                    part = kernel.successes(a, w, k)
                    assert list(part) == [c for c in combos[w::k] if c in chosen]
            decided += len(combos)
    assert decided >= 10_000
