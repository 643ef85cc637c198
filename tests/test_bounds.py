"""Radius lower bounds and the layer-distance property."""

import math

import pytest

from hypercore import (
    Hypergraph,
    NotACoreError,
    bound_report,
    degree_radius_bound,
    diameter_radius_bound,
    layer_distance_check,
    neighbor_radius_bound,
    propagate,
)
from hypercore import bounds
from hypercore.bounds import GUARD_BAND, max_degree, max_neighbor_count


def radius(graph, core):
    """The radius of ``core``, which must be a core."""
    trace = propagate(graph, core)
    assert trace.verdict
    return trace.radius


def test_neighbor_bound_examples(triangle, path):
    b = neighbor_radius_bound(triangle, 1)
    assert abs(b - (math.log2(3) - 1)) < 1e-12
    assert radius(triangle, {0}) > b
    assert neighbor_radius_bound(triangle, 3) == pytest.approx(-1.0)
    assert max_neighbor_count(path) == 2
    assert radius(path, {0}) > neighbor_radius_bound(path, 1)
    with pytest.raises(ValueError):
        neighbor_radius_bound(triangle, 0)


def test_degree_bound_examples(triangle, star):
    assert degree_radius_bound(triangle, 1) == pytest.approx(math.log2(3) - 1)
    assert max_degree(star) == 3
    b = degree_radius_bound(star, 1)
    assert b == pytest.approx(math.log(4, 3) - 1)
    assert radius(star, {0}) > b
    assert degree_radius_bound(star, 4) == pytest.approx(-1.0)


def test_degenerate_branching_reports_zero():
    g = Hypergraph(2, [(0, 1), (0, 1)])
    assert max_neighbor_count(g) == 1
    assert max_degree(g) == 2
    assert neighbor_radius_bound(g, 1) == 0.0
    report = bound_report(g, 1)
    assert report.neighbor_degenerate and not report.degree_degenerate


def test_diameter_bound_examples(triangle, path):
    assert diameter_radius_bound(path, 1) == 1.0
    # the middle seed meets the bound with equality; an end seed beats it
    assert radius(path, {1}) == 1
    assert radius(path, {0}) == 2 > 1
    assert diameter_radius_bound(triangle, 1) == 0.0
    assert radius(triangle, {0}) > 0
    assert diameter_radius_bound(triangle, 2) == 0.0
    assert math.isinf(diameter_radius_bound(Hypergraph(3, [(0, 1)]), 1))
    with pytest.raises(ValueError, match="^core size must be at least 1$"):
        diameter_radius_bound(path, 0)


def test_diameter_bound_strict_for_end_seed():
    n = 9
    chain = Hypergraph(n, [(i, i + 1) for i in range(n - 1)])
    b = diameter_radius_bound(chain, 1)
    assert b == float((n - 1) // 2)
    assert radius(chain, {0}) == n - 1 > b


def test_layer_distance_examples(triangle, path):
    assert layer_distance_check(path, {0})
    assert layer_distance_check(triangle, {0})
    assert layer_distance_check(triangle, {0, 1, 2})
    # a size-1 edge activates vertex 1 in layer 1, though no seed reaches it
    assert not layer_distance_check(Hypergraph(2, [(1,)]), {0})
    with pytest.raises(NotACoreError):
        layer_distance_check(triangle, set())


def test_layer_distance_matches_trace(path):
    trace = propagate(path, {0})
    assert trace.depth[2] == 2  # two hops from the seed


def test_bound_report_fields(path):
    report = bound_report(path, 1)
    assert report.j_neighbors == 2
    assert report.d_degree == 2
    assert report.diameter == 2
    assert report.diameter_bound == 1.0
    assert report.neighbor_bound == pytest.approx(math.log2(3) - 1)
    assert radius(path, {0}) > report.neighbor_bound - GUARD_BAND


def test_bound_report_computes_diameter_once(monkeypatch, path):
    calls = []
    real = bounds.diameter
    monkeypatch.setattr(bounds, "diameter", lambda graph: calls.append(graph) or real(graph))
    for core_size in (1, 2):
        report = bound_report(path, core_size)
    assert len(calls) == 2
    assert report.diameter == 2 and report.diameter_bound == 0.0
    disconnected = bound_report(Hypergraph(4, [(0, 1), (2, 3)]), 1)
    assert len(calls) == 3
    assert math.isinf(disconnected.diameter_bound)


def test_bad_core_size_is_refused_before_the_diameter(monkeypatch):
    calls = []
    monkeypatch.setattr(bounds, "diameter", lambda graph: calls.append(graph) or 0)
    cycle = Hypergraph(3000, [(i, (i + 1) % 3000) for i in range(3000)])
    for check in (bound_report, diameter_radius_bound):
        with pytest.raises(ValueError, match="^core size must be at least 1$"):
            check(cycle, 0)
    assert calls == []
