"""Property tests for the line-record text formats: writers round-trip
through their readers, and arbitrary text raises only ``HceParseError``."""

import string

from hypothesis import given, settings, strategies as st

from hypercore import HceParseError, Hypergraph, read_instance, read_vertex_set
from hypercore import write_instance, write_vertex_set
from hypercore.filtration import Filtration, read_filtration, write_filtration
from hypercore.hypergraph import default_thresholds
from hypercore.reductions import read_cnf, read_minrep, read_setcover

# Fixed examples and a bounded count keep the suite deterministic and quick.
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

READERS = (
    read_instance,
    read_vertex_set,
    read_filtration,
    read_setcover,
    read_minrep,
    read_cnf,
)

_word = st.text(string.ascii_letters + string.digits + "_-.:@#", min_size=1, max_size=6)
labels = st.lists(_word, min_size=1, max_size=3).map(" ".join)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 7))
    edges = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            max_size=7,
        )
    )
    graph = Hypergraph(
        n, edges, draw(st.dictionaries(st.integers(0, n - 1), labels, max_size=n))
    )
    thresholds = [draw(st.integers(0, hi)) for hi in default_thresholds(graph)]
    return graph, draw(st.sampled_from([None, thresholds]))


@SETTINGS
@given(instances())
def test_instance_roundtrip(case):
    graph, thresholds = case
    text = write_instance(graph, thresholds)
    back, back_thresholds = read_instance(text)
    assert back == graph
    if thresholds is not None and back_thresholds is not None:
        assert back_thresholds == thresholds
    else:  # a file whose thresholds are all defaults carries no t line
        assert back_thresholds is None
        assert thresholds in (None, list(default_thresholds(graph)))
    assert write_instance(back, back_thresholds) == text


@SETTINGS
@given(st.frozensets(st.integers(0, 60), max_size=12))
def test_vertex_set_roundtrip(vertices):
    assert read_vertex_set(write_vertex_set(vertices)) == vertices


@st.composite
def filtrations(draw):
    length = draw(st.integers(0, 8))
    return Filtration(
        foundation=draw(st.frozensets(st.integers(0, 20), max_size=6)),
        edge_order=tuple(draw(st.permutations(range(length)))),
        added_vertex=tuple(
            draw(st.lists(st.none() | st.integers(0, 20), min_size=length, max_size=length))
        ),
    )


@SETTINGS
@given(filtrations())
def test_filtration_roundtrip(filtration):
    assert read_filtration(write_filtration(filtration)) == filtration


# Fuzzed files.  Each reader gets its own header word and count width
# (None: no header) and records that look well formed, some of them with
# indices out of range; lines mix those records with runs of format
# words, kind letters and small or malformed numbers.  Counts stay small
# so that a header that parses stays cheap to build.
FORMATS = {
    read_instance: ("hce", 2, ("e 0", "e 1 1", "e 2 1 2", "e 2 2 3", "t 1 0", "t 2 1", "l 1 a", "l 4 a")),
    read_vertex_set: (None, 0, ("s 0", "s 1 1", "s 2 1 3")),
    read_filtration: (None, 0, ("f 0", "f 1 2", "o 1", "o 2 3")),
    read_setcover: ("sc", 2, ("s 0", "s 1 1", "s 2 1 2", "s 1 4")),
    read_minrep: ("minrep", 4, ("e 1 1", "e 2 1", "e 1 3")),
    read_cnf: ("cnf", 2, ("1 2 3 0", "-1 2 -3 0", "1 -1 2 0", "1 2 4 0")),
}
_TOKENS = (
    "p", "hce", "sc", "minrep", "cnf", "c", "e", "t", "l", "s", "f", "o",
    "corrupt", "0", "1", "2", "3", "4", "-1", "-3", "x", "1x", "+2", "²",
)
token_lines = st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join)


@st.composite
def fuzzed_files(draw):
    reader = draw(st.sampled_from(READERS))
    word, width, records = FORMATS[reader]
    lines = []
    if word and draw(st.integers(0, 3)):
        counts = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
        lines.append(" ".join(["p", word, *map(str, counts)]))
    lines += draw(st.lists(st.sampled_from(records) | token_lines, max_size=6))
    return reader, "\n".join(lines)


@settings(SETTINGS, max_examples=400)
@given(fuzzed_files())
def test_fuzzed_files_raise_only_parse_errors(case):
    reader, text = case
    try:
        reader(text)
    except HceParseError:
        pass


arbitrary_texts = st.text(max_size=40) | st.lists(token_lines, max_size=6).map("\n".join)


@SETTINGS
@given(arbitrary_texts)
def test_arbitrary_text_raises_only_parse_errors(text):
    for reader in READERS:
        try:
            reader(text)
        except HceParseError:
            pass
