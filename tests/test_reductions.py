"""Gadget compilers, solution extraction, threshold transformations."""

import hashlib
import itertools
import random
import tracemalloc

import pytest

from hypercore import (
    CnfFormula,
    HceParseError,
    Hypergraph,
    MinrepInstance,
    NotACoreError,
    OracleBudget,
    SetCoverInstance,
    core_to_minrep,
    core_to_setcover,
    is_core,
    minrep_to_mincore,
    oracle_min_core,
    oracle_min_radius_over_min_cores,
    oracle_minrep,
    oracle_sat,
    oracle_setcover,
    propagate,
    setcover_to_mincore,
    setcover_to_mincore_3uniform,
    threesat_to_mincore_radius,
    threshold_add_per_edge,
    threshold_add_shared,
    triangulate_edge,
)
from hypercore import reductions
from hypercore.reductions import read_cnf, read_minrep, read_setcover

FIGURE = SetCoverInstance(3, (frozenset({0}), frozenset({0, 1}), frozenset({2})))
WIDE = OracleBudget(max_vertices=80, max_subsets=500_000)


def test_source_instance_validation():
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset({0}),))  # does not cover
    with pytest.raises(ValueError):
        SetCoverInstance(1, (frozenset({3}),))
    with pytest.raises(ValueError):
        MinrepInstance(1, 1, 1, 1, ((1, 0),))
    with pytest.raises(ValueError, match="^right node 1 out of range$"):
        MinrepInstance(1, 1, 1, 1, ((0, 1),))
    with pytest.raises(ValueError):
        MinrepInstance(0, 1, 1, 1, ())
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, 1, 2),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((1, 2, -2),))


# ---------------------------------------------------------------------------
# Set Cover


def test_setcover_compile_figure_instance():
    cert = setcover_to_mincore(FIGURE)
    g = cert.instance
    assert g.n == 12
    assert g.m == 3 + 8 + 6
    s1a, s1b = cert.set_vertices(0)
    e2a, e2b = cert.element_vertices(1)
    # membership edges exist only toward the set's own elements
    assert not any(
        s1a in e and (e2a in e or e2b in e) for e in g.edges if len(e) == 3
    )
    e1a, _ = cert.element_vertices(0)
    assert any(s1a in e and s1b in e and e1a in e for e in g.edges)
    assert set(g.labels) == set(range(g.n))


def test_setcover_optimum_matches():
    assert oracle_min_core(setcover_to_mincore(FIGURE).instance, budget=WIDE)[0] == 2
    tiny = SetCoverInstance(1, (frozenset({0}),))
    assert oracle_min_core(setcover_to_mincore(tiny).instance)[0] == 1


def test_setcover_extraction():
    cert = setcover_to_mincore(FIGURE)
    c = {cert.set_vertices(1)[0], cert.set_vertices(2)[0]}
    assert core_to_setcover(cert, c) == [1, 2]
    # element-side vertices relocate into a containing set
    c2 = {cert.element_vertices(0)[0], cert.set_vertices(1)[0], cert.set_vertices(2)[0]}
    t2 = core_to_setcover(cert, c2)
    assert len(t2) <= len(c2)
    # choosing every set is always a cover
    call = {cert.set_vertices(i)[0] for i in range(3)}
    assert core_to_setcover(cert, call) == [0, 1, 2]
    with pytest.raises(NotACoreError):
        core_to_setcover(cert, {cert.set_vertices(0)[0]})
    # the 3-uniform layout (hub, tree vertices) is refused, even for a core
    cert3 = setcover_to_mincore_3uniform(FIGURE)
    with pytest.raises(ValueError, match="general covering compiler"):
        core_to_setcover(cert3, range(cert3.instance.n))


def test_setcover_extraction_bounded_by_every_core():
    tiny = SetCoverInstance(1, (frozenset({0}),))
    cert = setcover_to_mincore(tiny)
    g = cert.instance
    for bits in range(2**g.n):
        core = {v for v in range(g.n) if bits >> v & 1}
        if not is_core(g, core):
            continue
        cover = core_to_setcover(cert, core)
        assert len(cover) <= len(core)
        covered = set().union(*(tiny.sets[i] for i in cover))
        assert covered == set(range(tiny.universe_size))


def _random_setcover(rng, max_u=4, max_k=4):
    u = rng.randint(1, max_u)
    k = rng.randint(1, max_k)
    sets = [
        frozenset(rng.sample(range(u), rng.randint(1, u))) for _ in range(k)
    ]
    missing = set(range(u)) - set().union(*sets)
    if missing:
        sets[rng.randrange(k)] |= missing
    return SetCoverInstance(u, tuple(sets))


def test_setcover_l_reduction_small_batch():
    for s in range(12):
        inst = _random_setcover(random.Random(900 + s))
        cert = setcover_to_mincore(inst)
        opt_cover = oracle_setcover(inst)[0]
        opt_core, witness = oracle_min_core(cert.instance, budget=WIDE)
        assert opt_core == opt_cover
        cover = core_to_setcover(cert, witness)
        assert len(cover) <= len(witness)


# ---------------------------------------------------------------------------
# Triangulation


def _tree_gadget(leaves):
    """``_gadget_edges`` over leaves ``0..leaves-1`` with root ``leaves``."""
    edges, n = reductions._gadget_edges(list(range(leaves)), leaves, leaves + 1)
    return Hypergraph(n, edges)


def test_triangulation_gadget_shapes():
    assert reductions._gadget_edges([0, 1], 2, 3) == ([(2, 0, 1)], 3)
    for leaves in (2, 3, 4, 5, 8):
        g = _tree_gadget(leaves)
        assert (g.n, g.m) == (2 * leaves - 1, leaves - 1)
        assert all(len(e) == 3 for e in g.edges)
    with pytest.raises(ValueError):
        reductions._gadget_edges([0], 1, 2)


def test_triangulation_gadget_outer_subsets_are_cores():
    """Dropping any single outer vertex (root or leaf) still activates all."""
    for leaves in (2, 3, 4, 5):
        g = _tree_gadget(leaves)
        for combo in itertools.combinations(range(leaves + 1), leaves):
            assert is_core(g, combo)
        assert oracle_min_core(g)[0] == leaves


def test_triangulate_edge_examples():
    h4 = Hypergraph(4, [(0, 1, 2, 3)])
    t4 = triangulate_edge(h4, 0)
    assert t4.n == 5 and t4.m == 2
    assert all(len(e) == 3 for e in t4.edges)
    assert oracle_min_core(h4)[0] == oracle_min_core(t4)[0] == 3

    h3 = Hypergraph(3, [(0, 1, 2)])
    assert triangulate_edge(h3, 0) is h3

    two = Hypergraph(5, [(0, 1, 2, 3), (1, 2, 3, 4)])
    tt = triangulate_edge(two, 0)
    assert oracle_min_core(two)[0] == oracle_min_core(tt)[0]

    with pytest.raises(ValueError):
        triangulate_edge(Hypergraph(2, [(0, 1)]), 0)
    with pytest.raises(ValueError):
        triangulate_edge(h3, 5)


def test_triangulate_edge_preserves_minimum_small_batch():
    rng = random.Random(77)
    done = 0
    for s in range(200):
        if done >= 15:
            break
        n = rng.randint(4, 7)
        m = rng.randint(1, 4)
        from hypercore import generate_random

        g = generate_random(n, m, 2, min(5, n), seed=3000 + s)
        big = [i for i, e in enumerate(g.edges) if len(e) >= 4]
        if not big:
            continue
        idx = big[0]
        expanded = triangulate_edge(g, idx)
        if expanded.n > 12:
            continue
        assert oracle_min_core(g)[0] == oracle_min_core(expanded)[0]
        done += 1
    assert done >= 15


# ---------------------------------------------------------------------------
# 3-uniform Set Cover


def test_setcover3_shapes_and_optimum():
    tiny = SetCoverInstance(1, (frozenset({0}),))
    cert = setcover_to_mincore_3uniform(tiny)
    assert all(len(e) == 3 for e in cert.instance.edges)
    assert oracle_min_core(cert.instance)[0] == 2

    cert_fig = setcover_to_mincore_3uniform(FIGURE)
    assert all(len(e) == 3 for e in cert_fig.instance.edges)
    assert oracle_min_core(cert_fig.instance, budget=WIDE)[0] == 3
    assert set(cert_fig.instance.labels) == set(range(cert_fig.instance.n))


def test_setcover3_refuses_empty_universe_with_sets():
    empty = SetCoverInstance(0, (frozenset(),))
    with pytest.raises(ValueError, match="non-empty universe"):
        setcover_to_mincore_3uniform(empty)
    assert setcover_to_mincore(empty).instance.edges == ((0, 1), (0,), (1,))
    # with no sets there is no collector tree to build
    assert setcover_to_mincore_3uniform(SetCoverInstance(0, ())).instance.n == 1


# ---------------------------------------------------------------------------
# AND gadget / MINREP


def test_and_gadget_examples():
    edges, x1, x2 = reductions._and_edges([0, 1], 2, 3)
    assert (edges, x1, x2) == ([(0, 1, 3), (0, 1, 4), (2, 3, 4)], 3, 4)
    trace = propagate(Hypergraph(5, edges), {0, 1})
    assert trace.verdict and trace.depth[2] == 2

    edges1, _, _ = reductions._and_edges([0], 1, 2)
    assert sorted(len(e) for e in edges1) == [2, 2, 3]


def test_minrep_single_super_edge():
    inst = MinrepInstance(1, 1, 1, 1, ((0, 0),))
    cert = minrep_to_mincore(inst)
    assert oracle_min_core(cert.instance, budget=WIDE)[0] == oracle_minrep(inst)[0] == 2
    assert set(cert.instance.labels) == set(range(cert.instance.n))


def test_minrep_shared_right_vertex():
    inst = MinrepInstance(2, 1, 1, 1, ((0, 0), (1, 0)))
    cert = minrep_to_mincore(inst)
    assert oracle_min_core(cert.instance, budget=WIDE)[0] == oracle_minrep(inst)[0] == 3


def test_minrep_no_edges():
    inst = MinrepInstance(1, 2, 1, 2, ())
    cert = minrep_to_mincore(inst)
    assert oracle_min_core(cert.instance, budget=WIDE)[0] == oracle_minrep(inst)[0] == 0


def test_minrep_covering_pairs_group_every_edge_once():
    # m_a = m_b = 2; (1, 0) is listed twice and its super-edge sorts first
    inst = MinrepInstance(2, 2, 2, 2, ((0, 2), (1, 0), (3, 3), (1, 0), (0, 1)))
    assert inst.covering_pairs() == {
        (0, 0): ((0, 5), (1, 4), (1, 4)),
        (0, 1): ((0, 6),),
        (1, 1): ((3, 7),),
    }
    assert list(inst.covering_pairs()) == sorted(inst.covering_pairs())
    assert MinrepInstance(1, 2, 1, 2, ()).covering_pairs() == {}
    # The compiler emits the relay gadgets in edge order, not super-edge
    # order: edge (0, 2) comes before (1, 0), its super-edge (0, 1) after (0, 0).
    cert = minrep_to_mincore(inst)
    firsts = [info.inputs for info in cert.gadgets[::2]][:4]
    assert firsts == [(0, 5), (0, 6), (1, 4), (1, 4)]
    assert cert.gadgets[0].output == cert.copy_vertex[(1, (0, 0))]
    assert cert.gadgets[2].output == cert.copy_vertex[(1, (0, 1))]


def test_minrep_canonicalization():
    inst = MinrepInstance(2, 1, 1, 1, ((0, 0), (1, 0)))
    cert = minrep_to_mincore(inst)
    g = cert.instance
    size, witness = oracle_min_core(g, budget=WIDE)
    canonical = core_to_minrep(cert, witness)
    assert canonical == witness  # already canonical, returned unchanged
    # a core holding both copies of each super-edge rewrites to endpoint pairs
    copies = set(cert.copy_vertex.values())
    assert is_core(g, copies)
    rewritten = core_to_minrep(cert, copies)
    assert rewritten <= set(range(cert.node_count))
    assert is_core(g, rewritten)
    assert len(rewritten) <= len(copies)
    # a core holding a relay vertex rewrites at equal size
    info = cert.gadgets[0]
    crafted = (set(witness) - {min(witness)}) | {info.x1}
    if is_core(g, crafted):
        out = core_to_minrep(cert, crafted)
        assert is_core(g, out) and len(out) <= len(crafted)
    with pytest.raises(NotACoreError):
        core_to_minrep(cert, set())


def test_core_to_minrep_drops_a_lone_super_edge_copy():
    cert = minrep_to_mincore(MinrepInstance(1, 1, 1, 1, ((0, 0),)))
    lone = cert.copy_vertex[(1, (0, 0))]
    core = {1, 2, 4, 5, 7}
    assert lone in core and cert.copy_vertex[(2, (0, 0))] not in core
    assert core_to_minrep(cert, core) == frozenset({0, 1})


def test_core_to_minrep_invariants_raise_runtime_error(monkeypatch):
    cert = minrep_to_mincore(MinrepInstance(1, 1, 1, 1, ((0, 0),)))
    verdicts = iter([True, False])  # accept the input core, reject the rewrite
    monkeypatch.setattr(reductions, "is_core", lambda graph, core: next(verdicts))
    with pytest.raises(RuntimeError, match="relay rewrite must preserve core-ness"):
        core_to_minrep(cert, range(cert.instance.n))


# ---------------------------------------------------------------------------
# CNF radius construction


def test_threesat_shape_and_pair_edges():
    phi = CnfFormula(6, ((1, 2, 3), (4, 5, 6)))
    cert = threesat_to_mincore_radius(phi, 4)
    y = cert.y_vertex[(1, 0)]
    assert sum(1 for e in cert.instance.edges if y in e and len(e) == 3) == 9
    assert cert.instance.n == 9 * 2 + 1 + 1
    assert len(cert.chain) == 1
    assert set(cert.instance.labels) == set(range(cert.instance.n))

    mixed = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    cert2 = threesat_to_mincore_radius(mixed, 4)
    y2 = cert2.y_vertex[(1, 0)]
    assert sum(1 for e in cert2.instance.edges if y2 in e and len(e) == 3) == 6

    with pytest.raises(ValueError):
        threesat_to_mincore_radius(phi, 3)


def test_threesat_chain_growth():
    phi = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    c5 = threesat_to_mincore_radius(phi, 5)
    assert len(c5.chain) == 2
    assert (c5.chain[0], c5.chain[1]) in c5.instance.edges


def test_threesat_single_clause_degenerates():
    phi = CnfFormula(3, ((1, 2, 3),))
    cert = threesat_to_mincore_radius(phi, 4)
    assert (cert.chain[0],) in cert.instance.edges  # empty meeting set


def test_threesat_satisfiable_radius():
    phi = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    assert oracle_sat(phi)[0]
    cert = threesat_to_mincore_radius(phi, 4)
    budget = OracleBudget(max_vertices=40, max_subsets=10**6)
    size, best, _ = oracle_min_radius_over_min_cores(cert.instance, budget=budget)
    assert size == 2 and best == 4

    c5 = threesat_to_mincore_radius(phi, 5)
    _, best5, _ = oracle_min_radius_over_min_cores(c5.instance, budget=budget)
    assert best5 == 5


def test_threesat_complementary_choice_costs_a_round():
    """Cores picking clashing literal slots finish one layer later."""
    phi = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    for k in (4, 5):
        cert = threesat_to_mincore_radius(phi, k)
        clashing = propagate(
            cert.instance,
            {cert.literal_vertex(0, 0), cert.literal_vertex(1, 0)},
        )
        compatible = propagate(
            cert.instance,
            {cert.literal_vertex(0, 0), cert.literal_vertex(1, 1)},
        )
        assert clashing.verdict and compatible.verdict
        assert compatible.radius == k
        assert clashing.radius == k + 1


def test_threesat_unsatisfiable_slot_cores_all_shift():
    """All eight sign patterns over three variables form the smallest
    unsatisfiable formula in this clause format; every one-slot-per-clause
    core of its compilation needs radius k + 1.  (Full minimum-core
    enumeration is far outside the exhaustive budget at this size.)
    """
    clauses = tuple(
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    )
    phi = CnfFormula(3, clauses)
    assert not oracle_sat(phi)[0]
    k = 4
    cert = threesat_to_mincore_radius(phi, k)
    rng = random.Random(4242)
    for _ in range(200):
        picks = [rng.randrange(3) for _ in range(8)]
        core = {cert.literal_vertex(i, p) for i, p in enumerate(picks)}
        trace = propagate(cert.instance, core)
        assert trace.verdict
        assert trace.radius == k + 1


# ---------------------------------------------------------------------------
# Threshold transformations


def test_threshold_add_shared_examples():
    single = Hypergraph(2, [(0, 1)])
    g, t = threshold_add_shared(single, [1])
    assert g.edges == ((0, 1, 2),) and t == (2,)
    assert oracle_min_core(single, [1])[0] + 1 == oracle_min_core(g, t)[0]

    tri = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    g2, t2 = threshold_add_shared(tri)
    assert oracle_min_core(tri)[0] + 1 == oracle_min_core(g2, t2)[0]

    empty = Hypergraph(3, [])
    g3, _ = threshold_add_shared(empty)
    assert g3.n == 4 and oracle_min_core(g3)[0] == 4


def test_threshold_add_per_edge_examples():
    single = Hypergraph(2, [(0, 1)])
    g, t = threshold_add_per_edge(single, [1])
    assert g.edges == ((0, 1, 2),) and t == (1,)
    assert oracle_min_core(g, t)[0] == oracle_min_core(single, [1])[0] == 1

    empty = Hypergraph(3, [])
    g2, _ = threshold_add_per_edge(empty)
    assert g2.n == empty.n and g2.edges == empty.edges


def test_threshold_transform_property_small_batch():
    from hypercore import generate_random

    rng = random.Random(51)
    for s in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(1, 5)
        g = generate_random(n, m, 2, min(4, n), seed=5100 + s)
        t = [rng.randint(1, len(e) - 1) for e in g.edges]
        base = oracle_min_core(g, t)[0]
        gs, ts = threshold_add_shared(g, t)
        assert oracle_min_core(gs, ts)[0] == base + 1
        gp, tp = threshold_add_per_edge(g, t)
        assert oracle_min_core(gp, tp)[0] == base


# ---------------------------------------------------------------------------
# Source format parsers


def test_emitted_instances_survive_the_text_format():
    from hypercore import read_instance, write_instance

    certs = [
        setcover_to_mincore(FIGURE),
        setcover_to_mincore_3uniform(FIGURE),
        minrep_to_mincore(MinrepInstance(2, 1, 1, 1, ((0, 0), (1, 0)))),
        threesat_to_mincore_radius(CnfFormula(3, ((1, 2, 3), (-1, -2, -3))), 4),
    ]
    for cert in certs:
        g = cert.instance
        assert set(g.labels) == set(range(g.n))
        assert all(" " not in label for label in g.labels.values())
        back, _ = read_instance(write_instance(g))
        assert back == g


# SHA-256 of each compiler's concatenated `write_instance` text over the
# fixed family in `test_emitted_instance_bytes_are_pinned`, recorded before
# the two set-cover compilers shared one body.
EMITTED_DIGESTS = {
    "setcover": "634dca9cd41d5421478f7d2b3c1de1bb5c5e9f4bf25abb9331f5aadc22e75d83",
    "setcover3": "9846830b5d3e8461827ead8e4d2c5ea1f4ebf4e48bc88f7c58c22181cdc0b133",
    "minrep": "3bd5b11477fa885eeb3b746faae0776830a2700fb0d724fabd9eba228a1302a4",
    "3sat": "4bd345085bef67e41abb474da8dcf098d8d9a5a7ddeef636cda5959893517e2e",
}


def test_emitted_instance_bytes_are_pinned():
    from hypercore import write_instance

    covers = [FIGURE] + [_random_setcover(random.Random(1300 + s), 6, 6) for s in range(60)]
    minreps = [
        MinrepInstance(1, 1, 1, 1, ((0, 0),)),
        MinrepInstance(2, 1, 1, 1, ((0, 0), (1, 0))),
        MinrepInstance(1, 2, 1, 2, ()),
        MinrepInstance(2, 2, 2, 2, ((0, 1), (1, 0), (2, 3), (3, 3), (1, 2))),
        MinrepInstance(3, 1, 2, 2, ((2, 3), (0, 0), (1, 1), (2, 0))),
    ]
    formulas = [
        CnfFormula(3, ((1, 2, 3),)),
        CnfFormula(3, ((1, 2, 3), (-1, -2, -3))),
        CnfFormula(6, ((1, 2, 3), (4, 5, 6))),
        CnfFormula(4, ((1, -2, 3), (-1, 2, 4), (2, -3, -4), (-1, -2, -4))),
    ]
    compiled = {
        "setcover": [setcover_to_mincore(inst) for inst in covers],
        "setcover3": [setcover_to_mincore_3uniform(inst) for inst in covers],
        "minrep": [minrep_to_mincore(inst) for inst in minreps],
        "3sat": [threesat_to_mincore_radius(phi, k) for phi in formulas for k in (4, 5)],
    }
    digests = {
        name: hashlib.sha256(
            "".join(write_instance(cert.instance) for cert in certs).encode()
        ).hexdigest()
        for name, certs in compiled.items()
    }
    assert digests == EMITTED_DIGESTS


def test_read_setcover():
    inst = read_setcover("c demo\np sc 3 3\ns 1 1\ns 2 1 2\ns 1 3\n")
    assert inst == FIGURE
    with pytest.raises(HceParseError) as err:
        read_setcover("p sc 2 1\ns 1 1\n")  # family fails to cover
    assert err.value.line == 1


def test_setcover_coverage_counts_distinct_elements():
    assert SetCoverInstance(3, (frozenset({0, 1}), frozenset({1, 2}))).universe_size == 3
    assert SetCoverInstance(0, ()).sets == ()
    with pytest.raises(ValueError, match="cover"):
        SetCoverInstance(3, (frozenset({0, 1}), frozenset({0, 1})))
    # The verdict must not cost memory in proportion to a declared universe.
    tracemalloc.start()
    try:
        with pytest.raises(HceParseError, match="cover") as err:
            read_setcover("p sc 2000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == 1
    assert peak < 1_000_000


def test_read_minrep():
    inst = read_minrep("p minrep 2 1 1 1\ne 1 1\ne 2 1\n")
    assert inst == MinrepInstance(2, 1, 1, 1, ((0, 0), (1, 0)))


def test_read_cnf():
    phi = read_cnf("c demo\np cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    assert phi == CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    with pytest.raises(HceParseError) as err:
        read_cnf("p cnf 2 1\n1 2 0\n")  # needs exactly three literals
    assert err.value.line == 2
