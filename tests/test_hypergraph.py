"""Instance model, structural queries, generators, text formats."""

import itertools
import math
import random

import pytest

from hypercore import (
    HceParseError,
    Hypergraph,
    diameter,
    generate_random,
    read_instance,
    read_vertex_set,
    write_instance,
    write_vertex_set,
)
from hypercore import hypergraph
from hypercore.filtration import read_filtration
from hypercore.hypergraph import default_thresholds, resolve_thresholds
from hypercore.reductions import read_cnf, read_minrep, read_setcover
from conftest import messy_instance, seeded_family
from test_acceptance import _peelable_instance


def test_constructor_normalizes_and_validates():
    # read_instance skips these checks; every other caller still gets them.
    g = Hypergraph(4, [(2, 0, 3), (3, 1)])
    assert g.edges == ((0, 2, 3), (1, 3))
    assert g._incidence == ((0,), (1,), (0,), (0, 1))
    with pytest.raises(ValueError):
        Hypergraph(2, [()])
    with pytest.raises(ValueError):
        Hypergraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(1, 0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Hypergraph(2, [(-1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(2, [(0, 1)], {2: "out"})
    with pytest.raises(ValueError):
        Hypergraph(-1, [])


def test_default_thresholds_leave_equality_hash_and_repr_alone():
    rng = random.Random(2800)
    graphs = [messy_instance(rng) for _ in range(200)]
    assert sum(any(len(e) == 1 for e in g.edges) for g in graphs) >= 40
    assert sum(len(set(g.edges)) < g.m for g in graphs) >= 40
    assert sum(g.m == 0 for g in graphs) >= 10
    for g in graphs:
        twin = Hypergraph(g.n, g.edges)
        before = (hash(g), repr(g))
        t = default_thresholds(g)
        assert t == tuple(max(len(e) - 1, 0) for e in g.edges)
        assert resolve_thresholds(g, None) == resolve_thresholds(g, t) == t
        assert g == twin and twin == g
        assert (hash(g), repr(g)) == before == (hash(twin), repr(twin))


def test_degrees_examples(triangle, path):
    assert triangle.degrees() == [2, 2, 2]
    assert path.degrees() == [1, 2, 1]
    assert Hypergraph(2, [(0, 1), (0, 1)]).degrees() == [2, 2]


def test_neighbors_examples(triangle, path):
    assert triangle.neighbors(0) == {1, 2}
    assert path.neighbors(0) == {1}
    assert Hypergraph(3, [(0, 1)]).neighbors(2) == set()
    with pytest.raises(ValueError):
        triangle.neighbors(3)


def test_neighbor_invariants():
    for g in seeded_family(40, seed=11, n_hi=9, size_lo=1):
        for v in range(g.n):
            nb = g.neighbors(v)
            assert v not in nb
            assert len(nb) <= g.n - 1


def _paths_bruteforce(graph, s, t):
    """Shortest hop distance by DFS over all simple vertex sequences."""
    best = [None]

    def walk(v, seen, depth):
        if best[0] is not None and depth >= best[0]:
            return
        for u in graph.neighbors(v):
            if u == t:
                best[0] = depth + 1 if best[0] is None else min(best[0], depth + 1)
            elif u not in seen:
                walk(u, seen | {u}, depth + 1)

    walk(s, {s}, 0)
    return best[0]


def test_shortest_hyperpath_examples(triangle, path):
    """Hop distances from ``_bfs_distances``; -1 marks an unreachable vertex."""
    bfs = hypergraph._bfs_distances
    assert bfs(path, (0,)) == [0, 1, 2] and _paths_bruteforce(path, 0, 2) == 2
    assert bfs(triangle, (0,)) == [0, 1, 1]
    assert bfs(Hypergraph(3, [(0, 1)]), (0,)) == [0, 1, -1]
    assert bfs(_path(5), (0, 4)) == [0, 1, 2, 1, 0]  # several sources
    assert bfs(path, (1, 1)) == [1, 0, 1]


def test_shortest_hyperpath_properties():
    for g in seeded_family(25, seed=7, n_hi=7, size_lo=1):
        rows = [hypergraph._bfs_distances(g, (s,)) for s in range(g.n)]
        for s in range(g.n):
            assert rows[s][s] == 0
            for t in range(s + 1, g.n):
                assert rows[s][t] == rows[t][s]
                expected = _paths_bruteforce(g, s, t)
                assert rows[s][t] == (-1 if expected is None else expected)


def test_diameter_examples(triangle, path):
    assert diameter(path) == 2
    assert diameter(triangle) == 1
    assert math.isinf(diameter(Hypergraph(3, [(0, 1)])))
    with pytest.raises(ValueError):
        diameter(Hypergraph(1, []))


def test_diameter_dominates_pairs():
    for g in seeded_family(25, seed=8, n_hi=7, size_lo=1):
        if g.n < 2:
            continue
        dia = diameter(g)
        dists = [
            d for s in range(g.n) for d in hypergraph._bfs_distances(g, (s,))[s + 1 :]
        ]
        if -1 in dists:
            assert math.isinf(dia)
        else:
            assert dia == max(dists)
            assert all(d <= dia for d in dists)


def _diameter_all_pairs(graph):
    """Reference: one BFS from every vertex."""
    best = 0
    for s in range(graph.n):
        for d in hypergraph._bfs_distances(graph, (s,)):
            if d < 0:
                return math.inf
            best = max(best, d)
    return best


def _path(n):
    return Hypergraph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return Hypergraph(n, [(i, (i + 1) % n) for i in range(n)])


def _diameter_cases():
    # Random instances with size-1 and duplicate edges and isolated vertices.
    yield from seeded_family(300, seed=11, n_hi=30, m_cap=45, size_lo=1, size_hi=4)
    # Long thin trees with a few chords: deep BFS levels and varied eccentricities.
    for s in range(100):
        rng = random.Random(s)
        n = rng.randint(2, 60)
        edges = [(v, rng.randrange(max(0, v - 3), v)) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), min(n, 3))) for _ in range(rng.randint(0, 3))]
        yield Hypergraph(n, edges)
    for n in (2, 3, 4, 5, 8, 9, 16, 17):
        yield _path(n)
        yield Hypergraph(n, [(0, v) for v in range(1, n)])  # star
        yield Hypergraph(n, itertools.combinations(range(n), 2))
        yield Hypergraph(n, [tuple(range(n))])  # one edge holding every vertex
    for n in (3, 4, 5, 6, 31, 32):
        yield _cycle(n)
    yield Hypergraph(2, [(0,), (1,)])
    for n, seed in ((150, 0), (151, 1), (220, 2), (300, 3)):
        yield _peelable_instance(n, seed)  # the banded shape of the bounds bench
    # Wide levels: many deep vertices at once, so the batch holds many sources.
    for arms, length in ((3, 1), (5, 4), (40, 3), (70, 2)):
        # A star of paths, one arm a hop longer: the root sits on that arm
        # and every other arm's end is deep.
        edges, n = [], 1
        for a in range(arms):
            size = length + (a == 0)
            edges += [(0 if v == n else v - 1, v) for v in range(n, n + size)]
            n += size
        yield Hypergraph(n, edges)
    for p, q in ((1, 1), (2, 3), (5, 70), (64, 65)):
        yield Hypergraph(p + q, [(u, p + v) for u in range(p) for v in range(q)])


def test_diameter_matches_all_pairs():
    for g in _diameter_cases():
        assert diameter(g) == _diameter_all_pairs(g), g


class _Calls(list):
    """One entry per ``_bfs_distances`` call, and one per source handed to
    ``_eccentricity_max``; ``batches`` holds each batch's source count."""


@pytest.fixture
def bfs_calls(monkeypatch):
    calls, batches = _Calls(), []
    bfs, batch = hypergraph._bfs_distances, hypergraph._eccentricity_max

    def counted_batch(graph, sources):
        batches.append(len(sources))
        calls.extend(sources)
        return batch(graph, sources)

    monkeypatch.setattr(
        hypergraph,
        "_bfs_distances",
        lambda graph, sources: calls.append(1) or bfs(graph, sources),
    )
    monkeypatch.setattr(hypergraph, "_eccentricity_max", counted_batch)
    calls.batches = batches
    return calls


def test_diameter_disconnected_costs_one_bfs(bfs_calls):
    g = Hypergraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert math.isinf(diameter(g))
    assert len(bfs_calls) == 1 and bfs_calls.batches == []


def test_diameter_long_path_costs_few_bfs(bfs_calls):
    assert diameter(_path(4000)) == 3999
    assert len(bfs_calls) <= 8 and bfs_calls.batches == []


def test_diameter_cycle_costs_half_the_vertices(bfs_calls):
    assert diameter(_cycle(1001)) == 500  # every eccentricity is 500
    assert len(bfs_calls) <= 1001 // 2 + 4
    assert len(bfs_calls.batches) == 1


class _CountedIncidence(tuple):
    """An incidence tuple that counts its lookups: ``_eccentricity_max``
    reads ``incidence[v]`` once per round in which ``v``'s mask gained."""

    lookups = 0

    def __getitem__(self, v):
        self.lookups += 1
        return tuple.__getitem__(self, v)


def _connected_random(rng, n):
    """A random tree plus chords, with size-1 and duplicate edges."""
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(n // 10)]
    edges += [(rng.randrange(n),) for _ in range(3)]
    edges += rng.sample(edges, min(len(edges), 5))
    return Hypergraph(n, edges)


def test_eccentricity_max_matches_per_source_bfs():
    rng = random.Random(29)
    for n in (2, 3, 17, 64, 65, 130, 300) * 3:
        g = _connected_random(rng, n)
        ecc = [max(hypergraph._bfs_distances(g, (s,))) for s in range(n)]
        for size in sorted({1, 63, 64, 65, n}):
            if size > n:
                continue
            sources = rng.sample(range(n), size)
            g._incidence = _CountedIncidence(g._incidence)
            assert hypergraph._eccentricity_max(g, sources) == max(ecc[s] for s in sources)
            assert g._incidence.lookups <= len(sources) * n  # mask gains
            g._incidence = tuple(g._incidence)


def test_generate_random_contract():
    empty = generate_random(5, 0, 1, 1, seed=7)
    assert empty.n == 5 and empty.m == 0
    a = write_instance(generate_random(6, 8, 2, 3, seed=42))
    b = write_instance(generate_random(6, 8, 2, 3, seed=42))
    assert a == b
    c = write_instance(generate_random(6, 8, 2, 3, seed=43))
    assert a != c
    g = generate_random(3, 2, 2, 2, seed=1)
    assert all(len(e) == 2 for e in g.edges)
    with pytest.raises(ValueError):
        generate_random(3, 2, 0, 2, seed=1)
    with pytest.raises(ValueError):
        generate_random(3, 2, 2, 4, seed=1)


def test_read_instance_example():
    g, thresholds = read_instance("p hce 3 2\ne 2 1 2\ne 2 2 3\n")
    assert g == Hypergraph(3, [(0, 1), (1, 2)])
    assert g != g.edges  # no equality with a non-hypergraph
    assert thresholds is None


def test_roundtrip_identity(triangle):
    text = write_instance(triangle)
    g, _ = read_instance(text)
    assert g == triangle
    for g in seeded_family(25, seed=9, n_hi=9, size_lo=1):
        again, _ = read_instance(write_instance(g))
        assert again == g
        assert write_instance(again) == write_instance(g)


def test_roundtrip_with_thresholds_and_labels():
    g = Hypergraph(4, [(0, 1, 2), (1, 3)], labels={0: "seed", 3: "sink"})
    t = [1, 1]
    text = write_instance(g, t)
    assert "t 1 1" in text and "t 2 1" not in text  # defaults stay implicit
    back, tb = read_instance(text)
    assert back == g
    assert tb == t
    # Thresholds its own reader would reject are refused, not written.
    single = Hypergraph(3, [(0, 1, 2)])
    for bad in ([5], [-1], [1.5], [True], [2.0], [1, 1]):
        with pytest.raises(ValueError, match="threshold"):
            write_instance(single, bad)


@pytest.mark.parametrize(
    "label, read_back",
    [
        pytest.param("", "label line needs vertex and label", id="empty"),
        pytest.param("a\nb", "unknown line kind 'b'", id="line-break"),
        pytest.param("a  b", "a b", id="double-space"),
        pytest.param(" a", "a", id="leading-space"),
        pytest.param("x\tz", "x z", id="tab"),
    ],
)
def test_write_instance_refuses_labels_that_do_not_round_trip(label, read_back):
    g = Hypergraph(2, [[0, 1]], {0: label})
    with pytest.raises(ValueError, match="cannot be written"):
        write_instance(g)
    # What the reader makes of the line the writer would have emitted.
    text = f"p hce 2 1\ne 2 1 2\nl 1 {label}\n"
    try:
        assert read_instance(text)[0].labels[0] == read_back != label
    except HceParseError as err:
        assert read_back in str(err)


def _with_labels(rng, g):
    """``g`` with labels on a random subset of its vertices."""
    words = ["a", "set1a", "tree3@g2", "link1_2_0", "x y", "hub"]
    chosen = rng.sample(range(g.n), rng.randint(0, g.n))
    return Hypergraph(g.n, g.edges, {v: rng.choice(words) for v in chosen})


def test_read_instance_builds_what_the_constructor_builds():
    rng = random.Random(3100)
    graphs = [_with_labels(rng, messy_instance(rng)) for _ in range(300)]
    assert sum(any(len(e) == 1 for e in g.edges) for g in graphs) >= 60
    assert sum(len(set(g.edges)) < g.m for g in graphs) >= 60
    assert sum(g.m == 0 for g in graphs) >= 15
    assert sum(0 in g.degrees() for g in graphs) >= 100
    for g in graphs:
        # Edges written in a shuffled vertex order, read back sorted.
        lines = [f"p hce {g.n} {g.m}"]
        for e in g.edges:
            vs = [v + 1 for v in e]
            rng.shuffle(vs)
            lines.append(" ".join(map(str, ["e", len(vs), *vs])))
        lines += [f"l {v + 1} {label}" for v, label in g.labels.items()]
        read, _ = read_instance("\n".join(lines))
        built = Hypergraph(g.n, [list(e) for e in g.edges], g.labels)
        assert read == built and built == read
        assert hash(read) == hash(built)
        assert (read.n, read.edges, read.labels) == (built.n, built.edges, built.labels)
        assert read._incidence == built._incidence
        assert all(type(ix) is tuple for ix in read._incidence)
        assert read.degrees() == built.degrees()
        assert default_thresholds(read) == default_thresholds(built)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(HceParseError) as err:
        read_instance("p hce 3 1\ne 3 1 2\n")
    assert err.value.line == 2  # declared count mismatch
    with pytest.raises(HceParseError) as err:
        read_instance("p hce 3 1\ne 2 1 9\n")
    assert err.value.line == 2  # vertex out of range
    with pytest.raises(HceParseError) as err:
        read_instance("p xyz 3 1\n")
    assert err.value.line == 1
    with pytest.raises(HceParseError):
        read_instance("e 2 1 2\n")  # edge before header
    with pytest.raises(HceParseError):
        read_instance("p hce 2 1\ne 2 1 1\n")  # repeated vertex
    with pytest.raises(HceParseError):
        read_instance("p hce 2 2\ne 2 1 2\n")  # missing edge line


def test_vertex_set_roundtrip():
    assert read_vertex_set("s 2 1 3\n") == {0, 2}
    assert write_vertex_set({2, 0}) == "s 2 1 3\n"
    assert read_vertex_set(write_vertex_set(set())) == set()
    with pytest.raises(HceParseError):
        read_vertex_set("s 2 1\n")
    with pytest.raises(HceParseError):
        read_vertex_set("x 1 1\n")


# Malformed inputs of every line-record format: (reader, text, line of the error).
MALFORMED = [
    pytest.param(read_setcover, "p sc x 1\ns 1 1\n", 1, id="sc-header-non-integer"),
    pytest.param(read_minrep, "p minrep 1 1 1 x\n", 1, id="minrep-header-non-integer"),
    pytest.param(read_cnf, "p cnf x 1\n1 2 3 0\n", 1, id="cnf-header-non-integer"),
    pytest.param(read_minrep, "p minrep 1 1 1 1\ne x 1\n", 2, id="minrep-edge-non-integer"),
    pytest.param(read_minrep, "p minrep 1 1 1 1\ne 5 1\n", 2, id="minrep-edge-out-of-range"),
    pytest.param(read_setcover, "p sc 1 1\np sc 1 1\ns 1 1\n", 2, id="sc-second-header"),
    pytest.param(read_minrep, "p minrep 1 1 1 1\np minrep 1 1 1 1\n", 2, id="minrep-second-header"),
    pytest.param(read_cnf, "p cnf 3 1\np cnf 3 1\n1 2 3 0\n", 2, id="cnf-second-header"),
    pytest.param(read_vertex_set, "s 2 1 1\n", 1, id="set-repeated-vertex"),
    pytest.param(read_vertex_set, "s 1 1\ns 1 2\n", 2, id="set-second-line"),
    pytest.param(read_vertex_set, "s 1 1\nzzz\n", 2, id="set-trailing-junk"),
    pytest.param(read_instance, "p hce 2 1\ne 2 1 2\nt 1 0\nt 1 1\n", 4, id="hce-second-threshold"),
    pytest.param(read_instance, "p hce 2 1\ne 2 1 2\nt 1 7\n", 3, id="hce-threshold-above-edge"),
    pytest.param(read_instance, "t 1 0\np hce 2 1\ne 2 1 2\n", 1, id="hce-threshold-before-header"),
    pytest.param(read_instance, "p hce 2 1\ne 2 1 2\nt 1\n", 3, id="hce-threshold-one-field"),
    pytest.param(read_instance, "p hce 2 1\ncorrupt e 1 1\ne 2 1 2\n", 2, id="hce-c-prefixed-word"),
    pytest.param(read_filtration, "f 1 0\n", 1, id="filtration-vertex-zero"),
    pytest.param(read_filtration, "f 0\no 0\n", 2, id="filtration-edge-zero"),
    pytest.param(read_instance, "c x\np hce 2 2\ne 2 1 2\n", 2, id="hce-count-at-header-line"),
    # int() reads these, but a field is an optional '-' and ASCII digits
    pytest.param(read_instance, "p hce 1_0 1\ne 2 1_0 +2\n", 1, id="hce-underscore-header"),
    pytest.param(read_instance, "p hce 3 1\ne 2 1 +3\n", 2, id="hce-plus-edge"),
    pytest.param(read_instance, "p hce 3 1\ne 2 1 3\nl +1 a\n", 3, id="hce-plus-label-vertex"),
    pytest.param(read_vertex_set, "s 1 +1\n", 1, id="set-plus"),
    pytest.param(read_filtration, "f 0\no 1_0\n", 2, id="filtration-underscore"),
    pytest.param(read_setcover, "p sc 2 1\ns 1 +1\n", 2, id="sc-plus"),
    pytest.param(read_minrep, "p minrep 1 1 1 1\ne 1 0_1\n", 2, id="minrep-underscore"),
    pytest.param(read_cnf, "p cnf 3 1\n1 -2 +3 0\n", 2, id="cnf-plus"),
]


@pytest.mark.parametrize("reader, text, line", MALFORMED)
def test_malformed_records_raise_with_line(reader, text, line):
    with pytest.raises(HceParseError) as err:
        reader(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


def test_integer_fields_are_ascii_decimal():
    """A field that ``int()`` reads but that is not an optional ``-`` and
    ASCII digits raises the "non-integer field" error on its line, in
    every format; labels and comments stay free text."""
    for reader, text, line in [
        (read_instance, "p hce ３ 1\ne 2 １ ３\n", 1),
        (read_instance, "p hce 3 1\ne 2 1 ３\n", 2),
        (read_instance, "p hce 3 1\nt 1 ０\ne 2 1 3\n", 2),
        (read_vertex_set, "s 1 ２\n", 1),
        (read_filtration, "f 1 ١\n", 1),
        (read_setcover, "p sc ２ 1\ns 1 1\n", 1),
        (read_minrep, "p minrep 1 1 1 1\ne 1 ۱\n", 2),
        (read_cnf, "p cnf 3 1\n1 -2 ३ 0\n", 2),
        (read_cnf, "p cnf 3 1\n1 -2 3_0 0\n", 2),
    ]:
        with pytest.raises(HceParseError, match="non-integer field") as err:
            reader(text)
        assert err.value.line == line, text
    g, _ = read_instance("c +1 1_0 ３\np hce 3 1\ne 2 1 3\nl 2 +a_b ３\nl 1 -007\n")
    assert g == Hypergraph(3, [(0, 2)], {1: "+a_b ３", 0: "-007"})
    assert read_vertex_set("s 2 01 003\n") == {0, 2}


# What ``str.splitlines`` ends a line at besides LF and CR; the formats
# read each as field whitespace, as ``str.split`` does.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# One valid file of each format, with a comment, and a label where the
# format has labels.
_COMMENTED = [
    (read_instance, "p hce 3 2\nc a comment\ne 2 1 2\ne 2 2 3\nt 2 0\nl 1 x y\n"),
    (read_vertex_set, "c a comment\ns 2 1 3\n"),
    (read_filtration, "c a comment\nf 1 1\no 1 2\n"),
    (read_setcover, "p sc 3 2\nc a comment\ns 2 1 2\ns 2 2 3\n"),
    (read_minrep, "p minrep 1 2 1 1\nc a comment\ne 1 1\ne 2 1\n"),
    (read_cnf, "p cnf 3 2\nc a comment\n1 -2 3 0\n-1 2 3 0\n"),
]


def test_a_line_ends_only_at_lf_crlf_or_cr():
    """Every format reads a file the same with LF, CR LF or CR line ends,
    and with any of ``SPLITLINES_ONLY`` in a comment, in a label or in
    place of every space; a bad record after it fails on its own line."""
    for reader, text in _COMMENTED:
        want = reader(text)
        assert reader(text.replace("\n", "\r\n")) == reader(text.replace("\n", "\r")) == want
        last = text.count("\n") + 1
        for ch in SPLITLINES_ONLY:
            for changed in (
                text.replace("a comment", f"a{ch}comment"),
                text.replace("x y", f"x{ch}y"),
                text.replace(" ", ch),
            ):
                assert reader(changed) == want, (reader.__name__, changed)
                with pytest.raises(HceParseError, match="unknown line kind 'zzz'") as err:
                    reader(changed + "zzz\n")
                assert err.value.line == last, (reader.__name__, changed)


def test_comment_is_first_field_c_only():
    g, _ = read_instance("c\nc a comment\n  c indented\np hce 1 1\ne 1 1\n")
    assert g == Hypergraph(1, [(0,)])
    assert read_vertex_set("c core\ns 1 2\nc trailing\n") == {1}


def test_threshold_range_and_header_order():
    g, t = read_instance("p hce 3 2\nt 2 0\ne 3 1 2 3\ne 1 2\n")
    assert t == [2, 0]  # t may precede its edge; size-1 edges admit only 0
    with pytest.raises(HceParseError) as err:
        read_instance("p hce 3 1\ne 1 2\nt 1 1\n")
    assert err.value.line == 3
    with pytest.raises(HceParseError) as err:
        read_instance("p hce 3 1\ne 2 1 2\nt 1 -1\n")
    assert err.value.line == 3
