"""Shared instances and seeded family helpers."""

import random

import pytest

from hypercore import Hypergraph, generate_random


@pytest.fixture
def triangle():
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path():
    return Hypergraph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star():
    return Hypergraph(4, [(0, 1), (0, 2), (0, 3)])


def seeded_family(count, seed, n_hi=12, m_cap=None, size_lo=2, size_hi=4, n_lo=2):
    """Deterministic list of random instances for property loops."""
    out = []
    for s in range(count):
        rng = random.Random(seed * 1_000_003 + s)
        n = rng.randint(n_lo, n_hi)
        m = rng.randint(0, n if m_cap is None else m_cap)
        lo = min(size_lo, n)
        hi = min(size_hi, n)
        out.append(generate_random(n, m, lo, hi, seed=seed * 7 + s))
    return out


def messy_instance(rng):
    """Small instance with duplicate edges, size-1 edges and isolated vertices."""
    n = rng.randint(1, 10)
    used = rng.randint(1, n)  # vertices used..n-1 stay isolated
    edges = []
    for _ in range(rng.randint(0, used + 3)):
        if edges and rng.random() < 0.2:
            edges.append(rng.choice(edges))
        else:
            edges.append(rng.sample(range(used), rng.randint(1, min(3, used))))
    return Hypergraph(n, edges)


def all_subsets(n):
    for bits in range(2**n):
        yield frozenset(v for v in range(n) if bits >> v & 1)
