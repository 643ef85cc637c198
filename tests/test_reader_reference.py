"""The line-record readers against the reference reader of
``reference_reader.py``, which checked each record in three layers.

Every reader must give an equal result, or raise ``HceParseError`` with
the same line and message, on fuzzed text, on the malformed-input table,
and on valid instance files with comments, blank lines, labels and ``t``
lines (and on one corrupted copy of each).
"""

import contextlib
import itertools
import random

import pytest
from hypothesis import given, settings

import reference_reader
from hypercore import HceParseError, Hypergraph, read_instance
from hypercore import filtration, hypergraph, reductions, read_vertex_set
from hypercore.filtration import read_filtration
from hypercore.reductions import read_setcover
from hypercore.hypergraph import default_thresholds
from conftest import messy_instance
from test_hypergraph import MALFORMED
from test_text_formats import READERS, SETTINGS, arbitrary_texts, fuzzed_files


@contextlib.contextmanager
def _reference_tokeniser():
    """Point every reader module at the reference ``_records`` and ``_counted``."""
    saved = [
        (module, name, getattr(module, name))
        for module in (hypergraph, filtration, reductions)
        for name in ("_records", "_counted")
    ]
    for module, name, _ in saved:
        setattr(module, name, getattr(reference_reader, name))
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def _outcome(reader, text, *args):
    try:
        result = reader(text, *args)
    except HceParseError as err:
        return "error", err.line, str(err)
    if reader in (read_instance, reference_reader.read_instance):
        graph, thresholds = result
        assert type(graph) is Hypergraph
        result = graph.n, graph.edges, graph.labels, graph._incidence, thresholds
    return "ok", result


def _reference_outcome(reader, text, *args):
    if reader is read_instance:
        return _outcome(reference_reader.read_instance, text, *args)
    with _reference_tokeniser():
        return _outcome(reader, text, *args)


def _assert_same(reader, text, *args):
    got = _outcome(reader, text, *args)
    assert got == _reference_outcome(reader, text, *args), text
    return got


@settings(SETTINGS, max_examples=400)
@given(fuzzed_files())
def test_fuzzed_files_match_reference(case):
    _assert_same(*case)


@SETTINGS
@given(arbitrary_texts)
def test_arbitrary_text_matches_reference(text):
    for reader in READERS:
        _assert_same(reader, text)


@pytest.mark.parametrize("reader, text, line", MALFORMED)
def test_malformed_table_matches_reference(reader, text, line):
    assert _assert_same(reader, text)[:2] == ("error", line)


# A counted record on one line of each reader that checks one, each
# reader's bound on the indices being 3.
_COUNTED = (
    (read_instance, "p hce 3 1\ne {}\n", ()),
    (read_vertex_set, "s {}\n", (3,)),
    (read_filtration, "f {}\n", (3,)),
    (read_setcover, "p sc 3 1\ns {}\n", ()),
)


@pytest.mark.parametrize("reader, template, args", _COUNTED)
def test_counted_records_match_reference(reader, template, args):
    """Every count in 0..3 with every list of up to three indices drawn from
    -1, 0, 1, 2, 3, 9: repeated, non-positive and out-of-range indices in
    every combination, so which check fires first is compared too."""
    messages = set()
    for count in range(4):
        for k in range(4):
            for xs in itertools.product((-1, 0, 1, 2, 3, 9), repeat=k):
                text = template.format(" ".join(map(str, (count, *xs))))
                got = _assert_same(reader, text, *args)
                messages.add(got[2].split()[2] if got[0] == "error" else "ok")
    assert {"ok", "declared", "repeated", "indices", "index"} <= messages


_LABELS = ("a", "set1a", "tree3@g2", "link1_2_0", "two words", "c", "e")
_JUNK = ("0", "-1", "x", "99", "c", "p", "e", "t", "l", "1.5", "")


def _valid_instance_text(rng):
    """A valid HCE file: shuffled vertex order inside edges, ``t`` and ``l``
    lines anywhere after the header, comments, blank lines and spacing."""
    g = messy_instance(rng)
    lines = [
        " ".join(map(str, ["e", len(e), *(v + 1 for v in rng.sample(e, len(e)))]))
        for e in g.edges
    ]
    extra = [
        f"t {i + 1} {rng.randint(0, hi)}"
        for i, hi in enumerate(default_thresholds(g))
        if rng.random() < 0.3
    ]
    extra += [f"l {v + 1} {rng.choice(_LABELS)}" for v in range(g.n) if rng.random() < 0.4]
    for line in extra:
        lines.insert(rng.randint(0, len(lines)), line)
    for _ in range(rng.randint(0, 4)):
        blank_or_comment = rng.choice(("", "   ", "c", "c note", "  c  x"))
        lines.insert(rng.randint(0, len(lines)), blank_or_comment)
    lines.insert(0, f"p hce {g.n} {g.m}")
    if rng.random() < 0.5:
        lines.insert(0, "c leading comment")
    spaced = [line.replace(" ", rng.choice((" ", "  ", "\t"))) for line in lines]
    return "\n".join(spaced) + rng.choice(("", "\n", "\r\n"))


def _corrupted(rng, text):
    """``text`` with one line dropped, doubled, or one field replaced."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    how = rng.randrange(3)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split() or [""]
        fields[rng.randrange(len(fields))] = rng.choice(_JUNK)
        lines[i] = " ".join(fields)
    return "\n".join(lines)


def test_valid_instances_match_reference():
    rng = random.Random(3200)
    texts = [_valid_instance_text(rng) for _ in range(200)]
    assert sum("\nt" in t for t in texts) >= 100
    assert sum("\nl" in t for t in texts) >= 100
    errors = 0
    for text in texts:
        assert _assert_same(read_instance, text)[0] == "ok"
        errors += _assert_same(read_instance, _corrupted(rng, text))[0] == "error"
    assert errors >= 50
