"""Hypergraph instance model, structural queries, generators and text formats.

Vertices are dense 0-based integers ``0..n-1``.  Edges are sorted,
duplicate-free vertex tuples; the edge *list* may contain duplicate edges
(multiplicity is meaningful and counted by degree queries).  Instances are
immutable after construction and safe to share between threads.  The one
field written later, the cached default thresholds, is a value derived
from the edge list and filled on first use: every writer stores an equal
tuple, and equality, hashing and ``repr`` never read it.

An edge fires once ``t(e)`` of its vertices are active.  The whole
threshold rule, the default ``|e| - 1`` and the valid range
``[0, |e| - 1]`` of a custom value, lives in :func:`resolve_thresholds`,
which every threshold argument of the package goes through.

The text exchange format ("HCE") is line oriented, UTF-8, 1-based:

    c <comment>                ignored
    p hce <n> <m>              header, exactly once, before any other line
    e <k> <v1> ... <vk>        one line per edge, k = vertex count
    t <edge_index> <threshold> optional per-edge activation threshold
    l <v> <label>              optional vertex label

Vertex-set files (cores, foundations) hold exactly one
``s <k> <v1> ... <vk>`` line of distinct vertices, also 1-based.

Every line-record format of the package (these two, filtrations and the
compiler inputs) goes through one tokeniser with one grammar: a comment
is a line whose first field is exactly ``c``; a ``p`` header, where the
format has one, appears once, before every other record, with integer
counts; unknown line kinds are errors; every field is an integer except
the free-text label of an ``l`` line; every 1-based index is at least 1.
A ``t`` line names each edge at most once and its value lies in
``[0, |e| - 1]``.  Malformed text raises :class:`HceParseError` with the
offending line's number, or the header's line for whole-file checks.

Each record is checked once.  The tokeniser takes an integer record of a
known kind after the header without further tests; a counted record
(``e``, ``s``, ``f``) is sorted once into its 0-based tuple while its
count, repeats and range are checked; and :func:`read_instance` builds
the instance from those checked tuples instead of passing them through
the public constructor, which checks its edges again for every other
caller.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterable, Mapping, Optional, Sequence


class HceParseError(ValueError):
    """Malformed instance text; ``line`` carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Hypergraph:
    """Immutable hypergraph with ``n`` vertices and an ordered edge list.

    The edge list order is the identity used by every per-edge output
    (thresholds, traces, layer reports).  Vertex labels are free-form
    strings used by the reduction compilers to record gadget provenance.
    """

    __slots__ = ("n", "edges", "labels", "_incidence", "_thresholds")

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]] = (),
        labels: Optional[Mapping[int, str]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = []
        for e in edges:
            vs = tuple(sorted(e))
            if not vs:
                raise ValueError("empty edges are not allowed")
            if len(set(vs)) != len(vs):
                raise ValueError(f"edge {vs} repeats a vertex")
            if vs[0] < 0 or vs[-1] >= n:
                raise ValueError(f"edge {vs} has a vertex outside [0, {n})")
            normalized.append(vs)
        labels = dict(labels) if labels else {}
        for v in labels:
            if not 0 <= v < n:
                raise ValueError(f"label for vertex {v} outside [0, {n})")
        self._fill(n, tuple(normalized), labels)

    def _fill(
        self, n: int, edges: tuple[tuple[int, ...], ...], labels: dict[int, str]
    ) -> None:
        """Set the fields and build the incidence from checked parts: each
        edge a sorted, non-empty, duplicate-free tuple inside ``[0, n)``,
        each labelled vertex inside ``[0, n)``.  ``__init__`` checks its
        arguments and then calls this; ``read_instance`` calls it on a bare
        instance with the tuples its records were checked into."""
        self.n = n
        self.edges = edges
        self.labels = labels
        incidence: list[list[int]] = [[] for _ in range(n)]
        for i, e in enumerate(edges):
            for v in e:
                incidence[v].append(i)
        for v, ix in enumerate(incidence):
            incidence[v] = tuple(ix)
        self._incidence = tuple(incidence)
        self._thresholds: Optional[tuple[int, ...]] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indices of edges containing ``v`` (duplicates listed once each)."""
        self._check_vertex(v)
        return self._incidence[v]

    def degrees(self) -> list[int]:
        """Per-vertex incident edge count; duplicate edges count twice."""
        return [len(ix) for ix in self._incidence]

    def neighbors(self, v: int) -> set[int]:
        """All vertices sharing at least one edge with ``v`` (``v`` excluded)."""
        self._check_vertex(v)
        out: set[int] = set()
        for i in self._incidence[v]:
            out.update(self.edges[i])
        out.discard(v)
        return out

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside [0, {self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"


def _bfs_distances(graph: Hypergraph, sources: Iterable[int]) -> list[int]:
    """Multi-source hop distances over the shared-edge relation; -1 = unreachable."""
    dist = [-1] * graph.n
    queue: deque[int] = deque()
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    edge_done = [False] * graph.m
    while queue:
        v = queue.popleft()
        for i in graph._incidence[v]:
            if edge_done[i]:
                continue
            edge_done[i] = True
            for u in graph.edges[i]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    return dist


def _eccentricity_max(graph: Hypergraph, sources: Sequence[int]) -> int:
    """The largest eccentricity among distinct ``sources``, from one
    bit-parallel BFS for all of them (Then et al., "The More the Merrier:
    Efficient Multi-Source Graph Traversal", PVLDB 2014).

    Bit ``i`` of a vertex's seen mask means that the vertex has been
    reached from ``sources[i]``; ``lack[v]`` holds the complement, the
    sources that have not reached ``v`` yet.  Each round ORs the bits that
    vertices gained in the previous round into each edge they lie in,
    once per edge, and each member of that edge takes the bits it lacks.
    A vertex gains a bit in round ``r`` exactly when it lies ``r`` hops
    from that source, so the number of rounds that gain anything is the
    answer.  Each (source, vertex) pair gains once, so a vertex's mask
    gains at most ``len(sources)`` times, and all gains are at most
    ``len(sources) * n``, the visits of one BFS per source.  Assumes a
    connected graph; on another it returns the largest finite
    eccentricity.
    """
    edges, incidence = graph.edges, graph._incidence
    lack = [(1 << len(sources)) - 1] * graph.n
    gains = {}  # vertex -> the bits it gained in the last round
    for i, s in enumerate(sources):
        lack[s] ^= 1 << i
        gains[s] = 1 << i
    rounds = 0
    while True:
        reach: dict[int, int] = {}  # edge -> the bits its members gained
        for v, new in gains.items():
            for j in incidence[v]:
                reach[j] = reach.get(j, 0) | new
        before: dict[int, int] = {}  # vertex -> its lack at the round's start
        for j, bits in reach.items():
            for u in edges[j]:
                old = lack[u]
                new = bits & old
                if new:
                    if u not in before:
                        before[u] = old
                    lack[u] = old ^ new
        if not before:
            return rounds
        gains = {u: old ^ lack[u] for u, old in before.items()}
        rounds += 1


def diameter(graph: Hypergraph) -> float:
    """Maximum pairwise hop distance; ``math.inf`` when disconnected.

    Integer valued whenever finite.  Requires at least two vertices.

    Exact, by a deep-vertex rule after the sweeps of iFUB (Crescenzi,
    Grossi, Habib, Lanzi, Marino, "On computing the diameter of
    real-world undirected graphs", TCS 2013).  One BFS from vertex 0
    settles connectivity.  A double sweep (a vertex ``a`` farthest from
    0, then ``b`` farthest from ``a``) finds the root: the smallest-index
    midpoint of a shortest ``a``-``b`` path, whose BFS gives each vertex
    its ``depth``.  Let ``lb`` be the largest eccentricity of the four
    swept vertices.  The diameter is the larger of ``lb`` and the largest
    eccentricity among the unswept vertices ``v`` with ``2 depth(v) >
    lb``.  Proof: a pair ``u``, ``v`` at distance ``D > lb`` has ``D <=
    depth(u) + depth(v)`` through the root, so one of them, say ``v``, is
    deeper than ``lb / 2``; ``v`` is unswept, since a swept vertex's
    eccentricity is at most ``lb``, and ``ecc(v) >= D``.  Conversely every
    eccentricity is at most the diameter.

    :func:`_eccentricity_max` takes that maximum in one bit-parallel BFS
    from all the deep vertices at once, whose mask gains are at most
    those of one BFS per deep vertex.  A path has no unswept deep vertex
    and costs 4 BFS; a cycle, where every eccentricity is the same, hands
    about ``n / 2`` sources to the batch.
    """
    if graph.n < 2:
        raise ValueError("diameter needs at least two vertices")
    dist = _bfs_distances(graph, (0,))
    if min(dist) < 0:
        return math.inf
    a = dist.index(max(dist))
    dist_a = _bfs_distances(graph, (a,))
    ecc_a = max(dist_a)
    b = dist_a.index(ecc_a)
    dist_b = _bfs_distances(graph, (b,))
    half = ecc_a // 2
    root = next(
        v for v in range(graph.n) if dist_a[v] == half and dist_b[v] == ecc_a - half
    )
    depth = _bfs_distances(graph, (root,))
    swept = {0, a, b, root}
    lb = max(max(dist), ecc_a, max(dist_b), max(depth))
    cut = lb // 2  # depth > cut iff 2 * depth > lb
    deep = [v for v, d in enumerate(depth) if d > cut and v not in swept]
    return max(lb, _eccentricity_max(graph, deep)) if deep else lb


def generate_random(
    n: int, m: int, edge_size_min: int, edge_size_max: int, seed: int
) -> Hypergraph:
    """Deterministic random instance; identical parameters give identical bytes.

    Every edge draws a uniform size in ``[edge_size_min, edge_size_max]`` and
    a uniform vertex subset of that size (without replacement).  ``n + m``
    above ``_MAX_DECLARED`` raises ``ValueError`` before anything is built.
    """
    if not (1 <= edge_size_min <= edge_size_max <= n) and m > 0:
        raise ValueError("need 1 <= edge_size_min <= edge_size_max <= n")
    if n < 0 or m < 0:
        raise ValueError("counts must be non-negative")
    if n + m > _MAX_DECLARED:
        raise ValueError(f"n + m = {n + m} is over {_MAX_DECLARED}")
    rng = random.Random(f"hce:{n}:{m}:{edge_size_min}:{edge_size_max}:{seed}")
    edges = []
    for _ in range(m):
        size = rng.randint(edge_size_min, edge_size_max)
        edges.append(sorted(rng.sample(range(n), size)))
    return Hypergraph(n, edges)


# ---------------------------------------------------------------------------
# Activation thresholds


def default_thresholds(graph: Hypergraph) -> tuple[int, ...]:
    """Per-edge default, and largest valid, activation thresholds:
    ``|e| - 1``, or 0 for a size-1 edge.

    Built once per instance; later calls return the same tuple.
    """
    t = graph._thresholds
    if t is None:
        t = graph._thresholds = tuple([max(len(e) - 1, 0) for e in graph.edges])
    return t


Thresholds = Optional[Sequence[int]]


def resolve_thresholds(graph: Hypergraph, thresholds: Thresholds) -> tuple[int, ...]:
    """The activation rule, as a checked tuple of per-edge thresholds.

    ``None``, or the defaults tuple itself, returns the defaults with no
    per-edge work.  Any other sequence must hold one value per edge, each
    an ``int`` (not a ``bool``) in ``[0, |e| - 1]``, as a ``t`` line
    carries, else ``ValueError``.  The engine fires an edge when its count
    *equals* the threshold, so a fractional value would never fire.
    """
    defaults = default_thresholds(graph)
    if thresholds is None or thresholds is defaults:
        return defaults
    values = tuple(thresholds)
    if len(values) != len(defaults):
        raise ValueError("threshold count differs from edge count")
    for i, (t, hi) in enumerate(zip(values, defaults)):
        if isinstance(t, bool) or not isinstance(t, int):
            raise ValueError(f"threshold {t!r} for edge {i} is not an integer")
        if not 0 <= t <= hi:
            raise ValueError(f"threshold {t} for edge {i} outside [0, {hi}]")
    return values


# ---------------------------------------------------------------------------
# Line-record text formats


def _records(text: str, kinds: tuple[str, ...], header: Optional[tuple[str, int]] = None):
    """Tokenise a line-record file into ``(line_no, kind, values)`` tuples.

    Blank lines and comments (first field exactly ``c``) are skipped.  A
    line whose first field is a word is a record of that kind; any other
    line is a record of kind ``""`` (CNF clauses).  ``kinds`` lists the
    kinds the format allows.  Values are integers, except that an ``l``
    record carries one integer and then its free-text label.  With
    ``header = (word, width)`` the file needs exactly one ``p <word>``
    line of ``width`` non-negative integers before any other record; it
    is yielded with kind ``"p"``.  Every violation raises
    :class:`HceParseError` carrying the offending line's number.
    """
    plain = frozenset(kinds) - {"", "l"}  # word kinds whose fields are all integers
    seen = header is None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        kind = fields[0]
        if seen and kind in plain:  # the common record, needing no other test
            try:
                nums = list(map(int, fields[1:]))
            except ValueError:
                raise _non_integer(line_no, raw) from None
            yield line_no, kind, nums
            continue
        if kind == "c":
            continue
        if not kind.isalpha():
            kind = ""
        if kind == "p" and header:
            if seen:
                raise HceParseError(line_no, "duplicate header")
            if fields[1:2] != [header[0]]:
                raise HceParseError(line_no, f"expected a 'p {header[0]}' header")
            seen = True
            values = fields[2:]
        elif kind not in kinds:
            raise HceParseError(line_no, f"unknown line kind {fields[0]!r}")
        elif not seen:
            raise HceParseError(line_no, f"record before the 'p {header[0]}' header")
        else:
            values = fields[1:] if kind else fields
        if kind == "l":
            if len(values) < 2:
                raise HceParseError(line_no, "label line needs vertex and label")
            label = " ".join(values[1:])
            values = values[:1]
        try:
            nums = list(map(int, values))
        except ValueError:
            raise _non_integer(line_no, raw) from None
        if kind == "p" and (len(nums) != header[1] or min(nums, default=0) < 0):
            raise HceParseError(line_no, f"header needs {header[1]} non-negative counts")
        if kind == "l":
            nums.append(label)
        yield line_no, kind, nums
    if not seen:
        raise HceParseError(1, "missing header")


def _non_integer(line_no: int, raw: str) -> HceParseError:
    return HceParseError(line_no, f"non-integer field in {raw.strip()[:40]!r}")


def _counted(line_no: int, nums: list[int], hi: Optional[int] = None) -> tuple[int, ...]:
    """Sorted 0-based members of a counted record ``<k> <x1> ... <xk>``:
    exactly ``k`` distinct 1-based indices, none above ``hi``."""
    xs = nums[1:]
    if not nums or nums[0] != len(xs):
        raise HceParseError(line_no, "declared count does not match the list")
    xs.sort()
    if len(set(xs)) != len(xs):
        raise HceParseError(line_no, "repeated index")
    if xs and xs[0] < 1:
        raise HceParseError(line_no, "indices are 1-based")
    if xs and hi is not None and xs[-1] > hi:
        raise HceParseError(line_no, f"index {xs[-1]} outside [1, {hi}]")
    return tuple([x - 1 for x in xs])


# The most vertices plus edges an instance header, or ``generate_random``,
# may declare; a MinRep header is held to the same cap on its node count.
# Building the incidence costs about 64 bytes per declared vertex before
# any record is read, so a header at the cap commits about 640 MB; the
# largest instances in the tests and the benchmark have n + m = 8 * 10**4.
_MAX_DECLARED = 10_000_000


def read_instance(text: str):
    """Parse HCE text into ``(Hypergraph, thresholds_or_None)``.

    ``thresholds`` is a list aligned with the edge list when the file has
    any ``t`` line, else ``None``.  Raises :class:`HceParseError` with the
    offending line number (the header's for the edge count, and for a
    header declaring more than ``_MAX_DECLARED`` vertices plus edges).  The
    graph is built from the records' checked tuples, not through
    ``Hypergraph()``.
    """
    edges: list[tuple[int, ...]] = []
    labels: dict[int, str] = {}
    tlines: dict[int, tuple[int, int]] = {}  # edge index -> (line_no, threshold)
    for line_no, kind, nums in _records(text, ("e", "t", "l"), ("hce", 2)):
        if kind == "e":
            vs = _counted(line_no, nums, n)
            if not vs:
                raise HceParseError(line_no, "empty edge")
            edges.append(vs)
        elif kind == "p":
            head, (n, m) = line_no, nums
            if n + m > _MAX_DECLARED:
                raise HceParseError(
                    line_no, f"header declares {n + m} vertices and edges, over {_MAX_DECLARED}"
                )
        elif kind == "t":
            if len(nums) != 2:
                raise HceParseError(line_no, "threshold line needs index and value")
            if not 1 <= nums[0] <= m:
                raise HceParseError(line_no, f"edge index {nums[0]} outside [1, {m}]")
            if nums[0] in tlines:
                raise HceParseError(line_no, f"second threshold for edge {nums[0]}")
            tlines[nums[0]] = (line_no, nums[1])
        else:
            if not 1 <= nums[0] <= n:
                raise HceParseError(line_no, f"vertex {nums[0]} outside [1, {n}]")
            labels[nums[0] - 1] = nums[1]
    if len(edges) != m:
        raise HceParseError(head, f"header declares {m} edges, file has {len(edges)}")
    # Each edge is sorted, distinct, non-empty and inside [0, n), each label
    # inside [0, n): what the public constructor would check again.
    graph = Hypergraph.__new__(Hypergraph)
    graph._fill(n, tuple(edges), labels)
    thresholds = None
    if tlines:
        thresholds = list(default_thresholds(graph))
        for idx, (line_no, value) in tlines.items():
            hi = thresholds[idx - 1]
            if not 0 <= value <= hi:
                raise HceParseError(
                    line_no, f"threshold {value} for edge {idx} outside [0, {hi}]"
                )
            thresholds[idx - 1] = value
    return graph, thresholds


def write_instance(graph: Hypergraph, thresholds: Thresholds = None) -> str:
    """Canonical HCE text; ``read_instance`` of the result round-trips.

    A label must be non-empty, hold no line break, and have no leading,
    trailing or repeated whitespace: the reader splits an ``l`` line into
    fields and rejoins them with single spaces, so any other label would
    be rejected or read back changed.  Such a label raises ``ValueError``,
    and so do thresholds that :func:`resolve_thresholds` refuses.
    """
    for v, label in graph.labels.items():
        if not label or " ".join(label.split()) != label:
            raise ValueError(f"label {label!r} of vertex {v} cannot be written as an 'l' line")
    out = [f"p hce {graph.n} {graph.m}"]
    for e in graph.edges:
        out.append("e " + " ".join(str(x) for x in (len(e), *(v + 1 for v in e))))
    if thresholds is not None:
        defaults = default_thresholds(graph)
        for i, t in enumerate(resolve_thresholds(graph, thresholds)):
            if t != defaults[i]:
                out.append(f"t {i + 1} {t}")
    for v in sorted(graph.labels):
        out.append(f"l {v + 1} {graph.labels[v]}")
    return "\n".join(out) + "\n"


def read_vertex_set(text: str, n: Optional[int] = None) -> set[int]:
    """Parse a vertex-set file: exactly one ``s <k> <v1> ... <vk>`` line of
    distinct 1-based vertices, none above ``n`` when it is given."""
    found = None
    for line_no, _, nums in _records(text, ("s",)):
        if found is not None:
            raise HceParseError(line_no, "a vertex-set file holds one 's' line")
        found = set(_counted(line_no, nums, n))
    if found is None:
        raise HceParseError(1, "missing 's' line")
    return found


def write_vertex_set(vertices: Iterable[int]) -> str:
    vs = sorted(vertices)
    return "s " + " ".join(str(x) for x in (len(vs), *(v + 1 for v in vs))) + "\n"
