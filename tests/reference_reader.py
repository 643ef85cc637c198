"""The instance reader as it was before records were checked once.

``_records``, ``_counted`` and ``read_instance`` below are kept verbatim,
but for two rules that ``_records`` took on with the package's tokeniser:
an integer field is an optional ``-`` and ASCII digits, and a line ends
at LF, CR LF or a lone CR, not at every break ``str.splitlines`` knows.
The tokeniser checked every record through one general path,
``_counted`` returned an unsorted list, and ``read_instance`` built the
graph through the public ``Hypergraph`` constructor, which sorted and
checked each edge again.  ``test_reader_reference.py`` compares the package's readers with
these.
"""

import re
from typing import Optional

from hypercore.hypergraph import HceParseError, Hypergraph, default_thresholds


def _records(text: str, kinds: tuple[str, ...], header: Optional[tuple[str, int]] = None):
    """Tokenise a line-record file into ``(line_no, kind, values)`` tuples.

    A line ends at LF, CR LF or a lone CR.  Blank lines and comments
    (first field exactly ``c``) are skipped.  A line whose first field is
    a word is a record of that kind; any other line is a record of kind
    ``""`` (CNF clauses).  ``kinds`` lists the kinds the format allows.
    Values are integers, each an optional ``-`` and ASCII digits, except
    that an ``l`` record carries one integer and then its free-text label.  With
    ``header = (word, width)`` the file needs exactly one ``p <word>``
    line of ``width`` non-negative integers before any other record; it
    is yielded with kind ``"p"``.  Every violation raises
    :class:`HceParseError` carrying the offending line's number.
    """
    seen = header is None
    for line_no, raw in enumerate(re.split("\r\n|\r|\n", text), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        kind = fields[0] if fields[0].isalpha() else ""
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
            if not all(re.fullmatch("-?[0-9]+", v) for v in values):
                raise ValueError(values)
            nums = list(map(int, values))
        except ValueError:
            raise HceParseError(line_no, f"non-integer field in {raw.strip()[:40]!r}") from None
        if kind == "p" and (len(nums) != header[1] or min(nums, default=0) < 0):
            raise HceParseError(line_no, f"header needs {header[1]} non-negative counts")
        if kind == "l":
            nums.append(label)
        yield line_no, kind, nums
    if not seen:
        raise HceParseError(1, "missing header")


def _counted(line_no: int, nums: list[int], hi: Optional[int] = None) -> list[int]:
    """0-based members of a counted record ``<k> <x1> ... <xk>``: exactly
    ``k`` distinct 1-based indices, none above ``hi``."""
    xs = nums[1:]
    if not nums or nums[0] != len(xs):
        raise HceParseError(line_no, "declared count does not match the list")
    if len(set(xs)) != len(xs):
        raise HceParseError(line_no, "repeated index")
    if xs and min(xs) < 1:
        raise HceParseError(line_no, "indices are 1-based")
    if xs and hi is not None and max(xs) > hi:
        raise HceParseError(line_no, f"index {max(xs)} outside [1, {hi}]")
    return [x - 1 for x in xs]


def read_instance(text: str):
    """Parse HCE text into ``(Hypergraph, thresholds_or_None)``.

    ``thresholds`` is a list aligned with the edge list when the file has
    any ``t`` line, else ``None``.  Raises :class:`HceParseError` with the
    offending line number (the header's for the edge count).
    """
    edges: list[list[int]] = []
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
    graph = Hypergraph(n, edges, labels)
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
