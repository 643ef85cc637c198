"""Spans around calls into each hypercore layer, for the traced run only.

The tracer wraps the module-level names listed in ``TRACED`` (and the
``Hypergraph`` constructor) from outside the program: every module of the
package that holds a reference to a traced function gets the wrapper, so
calls between modules (``mincore`` -> ``peel_nm``, ``oracle`` ->
``is_core``, ``bounds`` -> ``diameter``) are timed too.  A listed name that
the package no longer has is skipped and reports zero.  Spans live in
memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

TRACED = (
    "hypergraph.read_instance",
    "hypergraph.Hypergraph",
    "hypergraph.write_instance",
    "hypergraph.read_vertex_set",
    "hypergraph.write_vertex_set",
    "hypergraph.diameter",
    "propagation.is_core",
    "propagation.propagate",
    "propagation.trace_report",
    "mincore.peel_nm",
    "mincore.mincore_fpt",
    "filtration.core_to_filtration",
    "filtration.filtration_to_core",
    "filtration.read_filtration",
    "filtration.write_filtration",
    "reductions.setcover_to_mincore_3uniform",
    "reductions.minrep_to_mincore",
    "reductions.threesat_to_mincore_radius",
    "reductions.read_setcover",
    "reductions.read_minrep",
    "reductions.read_cnf",
    "oracle.oracle_min_core",
    "oracle.oracle_min_radius_over_min_cores",
    "bounds.bound_report",
    "cli.main",
)


class Tracer:
    """Records one span per traced call: name, start, end, parent, op id.

    ``ok`` is 0 when the call raised; ``extra`` holds the incidence count of
    each constructed ``Hypergraph``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.ok = bytearray()
        self.extra: dict[int, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: float, end: float, parent: int, op: int = 0,
            ok: bool = True) -> int:
        """Append a finished span (used by the wrappers and by tests)."""
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        self.ok.append(ok)
        return len(self.names) - 1

    def wrap(self, name: str, fn, count=None):
        stack = self._stack

        def traced(*args, **kwargs):
            index = self.add(name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id)
            stack.append(index)
            self.start[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[index] = perf_counter()
                stack.pop()
                self.ok[index] = False
                raise
            self.end[index] = perf_counter()
            stack.pop()
            if count is not None:
                self.extra[index] = count(args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "hypercore") -> None:
        modules = [
            mod for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        ]
        for qualified in TRACED:
            modname, attr = qualified.split(".")
            original = getattr(sys.modules.get(f"{package}.{modname}"), attr, None)
            if original is None:
                continue
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self.wrap(
                    qualified, init, count=lambda args: sum(map(len, args[0].edges))
                ))
                continue
            wrapper = self.wrap(qualified, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.start[0] if self.names else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,name,start_s,end_s,parent,op,ok\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i},{name},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]},{self.op[i]},{self.ok[i]}\n"
                )


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _has_ancestor(tracer: Tracer, index: int, test) -> bool:
    p = tracer.parent[index]
    while p >= 0:
        if test(tracer.names[p]):
            return True
        p = tracer.parent[p]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls, inclusive busy ms and self ms, plus the counts.

    ``.ms`` counts a span only when no ancestor has the same name, so
    recursion is not counted twice; ``.self_ms`` is a span's duration minus
    the part its child spans cover.
    """
    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = 0
        out[f"{name}.ms"] = 0.0
        out[f"{name}.self_ms"] = 0.0
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(len(tracer)):
        p = tracer.parent[i]
        if p >= 0:
            children.setdefault(p, []).append((tracer.start[i], tracer.end[i]))
    attempts = hits = subsets = incidences = 0
    oracle_s = 0.0
    for i, name in enumerate(tracer.names):
        start, end = tracer.start[i], tracer.end[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += (end - start - covered(start, end, children.get(i, ()))) * 1e3
        if not _has_ancestor(tracer, i, name.__eq__):
            out[f"{name}.ms"] += (end - start) * 1e3
        if name == "mincore.peel_nm" and _has_ancestor(tracer, i, "mincore.mincore_fpt".__eq__):
            attempts += 1
            hits += tracer.ok[i]
        elif name in ("propagation.is_core", "propagation.propagate"):
            subsets += _has_ancestor(tracer, i, _is_oracle)
        elif name == "hypergraph.Hypergraph":
            incidences += tracer.extra.get(i, 0)
        if _is_oracle(name) and not _has_ancestor(tracer, i, _is_oracle):
            oracle_s += end - start
    out["mincore.attempts"] = attempts
    out["mincore.attempt_hit_ratio"] = hits / attempts if attempts else 0.0
    out["oracle.subsets"] = subsets
    out["oracle.subsets_per_s"] = subsets / oracle_s if oracle_s else 0.0
    out["hypergraph.Hypergraph.incidences"] = incidences
    return out


def _is_oracle(name: str) -> bool:
    return name.startswith("oracle.")
