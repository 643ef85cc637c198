"""Self-test of the benchmark's own arithmetic and checks.

    python3 bench/selftest.py

Covers the percentile and self-time arithmetic on synthetic spans, that a
corrupted stdout is counted as a failed op, that the traced counts repeat
exactly, that a traced name missing from the package reports zero, and
that ``BENCHMARK.json`` names exactly the metrics the runner produces.
Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_percentile() -> None:
    values = list(range(1, 101))
    expect(run.percentile(values, 90) == (90, 10), "p90 of 1..100 is 90 with 10 beyond")
    expect(run.percentile(values, 50) == (50, 50), "p50 of 1..100 is 50")
    expect(run.percentile([5.0, 1.0, 3.0], 90) == (5.0, 0), "p90 of three samples is the max")
    expect(run.percentile([7.0], 50) == (7.0, 0), "a single sample is every percentile")


def test_self_time() -> None:
    expect(close(tracing.covered(0, 10, [(1, 4), (3, 6), (8, 12)]), 7), "overlapping children merge")
    expect(close(tracing.covered(2, 3, [(0, 1), (4, 5)]), 0), "disjoint children cover nothing")
    t = tracing.Tracer()
    main = t.add("cli.main", 0.0, 10.0, -1)
    read = t.add("hypergraph.read_instance", 1.0, 4.0, main)
    t.add("hypergraph.Hypergraph", 2.0, 3.0, read)
    t.extra[2] = 9
    fpt = t.add("mincore.mincore_fpt", 5.0, 9.0, main)
    t.add("mincore.peel_nm", 5.0, 6.0, fpt, ok=False)
    t.add("mincore.peel_nm", 6.0, 7.5, fpt)
    outer = t.add("oracle.oracle_min_radius_over_min_cores", 20.0, 30.0, -1)
    inner = t.add("oracle.oracle_min_core", 21.0, 25.0, outer)
    t.add("propagation.is_core", 21.0, 22.0, inner)
    t.add("propagation.propagate", 26.0, 27.0, outer)
    t.add("propagation.propagate", 31.0, 32.0, -1)
    m = tracing.layer_metrics(t)
    expect(close(m["cli.main.ms"], 10_000) and close(m["cli.main.self_ms"], 3_000), "root self time excludes children")
    expect(close(m["hypergraph.read_instance.self_ms"], 2_000), "read_instance self time excludes the constructor")
    expect(close(m["mincore.mincore_fpt.self_ms"], 1_500), "mincore_fpt self time")
    expect(m["mincore.peel_nm.calls"] == 2 and close(m["mincore.peel_nm.ms"], 2_500), "peel_nm calls and busy time")
    expect(m["mincore.attempts"] == 2 and close(m["mincore.attempt_hit_ratio"], 0.5), "attempts and hit ratio")
    expect(m["oracle.subsets"] == 2, "only oracle-driven propagation counts as subsets")
    expect(close(m["oracle.subsets_per_s"], 0.2), "subsets per oracle-busy second")
    expect(m["hypergraph.Hypergraph.incidences"] == 9, "incidences summed over constructions")
    nested = tracing.Tracer()
    a = nested.add("hypergraph.diameter", 0.0, 4.0, -1)
    nested.add("hypergraph.diameter", 1.0, 2.0, a)
    m = tracing.layer_metrics(nested)
    expect(close(m["hypergraph.diameter.ms"], 4_000) and close(m["hypergraph.diameter.self_ms"], 4_000),
           "recursive spans are counted once in busy time")


class _CorruptingCli:
    """Runs the real CLI, then appends a byte to one command's stdout."""

    def __init__(self, cli, command: str):
        self.cli, self.command = cli, command

    def main(self, argv):
        rc = self.cli.main(argv)
        if argv[0] == self.command:
            print("x")
        return rc


def _run_small(name: str, count: int, cli, hc, tracer=None):
    workload = WORKLOADS[name]
    expected = run.load_expected(name)
    keys = workload.select(run.DEFAULT_SEED, expected)[:count]
    items = [workload.build(key) for key in keys]
    run.write_inputs(items, Path("."))
    ops = run.op_list(items)
    recorder = run.Recorder(ops)
    if tracer is None:
        run.timed_section(cli, ops, recorder, 0.0, 2 * len(ops))
    else:
        run.traced_pass(cli, ops, recorder, tracer)
    return run.verify(workload, items, ops, recorder, expected, hc) + (recorder,)


def test_outputs(hc, cli) -> None:
    failed, reasons, rec = _run_small("certify", 4, cli, hc)
    expect(failed == 0 and sum(rec.runs) == 16, f"certify ops pass their checks ({reasons[:1]})")
    failed, reasons, rec = _run_small("certify", 4, _CorruptingCli(cli, "oracle"), hc)
    expect(failed == 8 and sum(rec.runs) == 16, "a corrupted oracle stdout fails every run of that op")
    expect(any("differs from the record" in r for r in reasons), "the failure names the recorded digest")
    failed, _, rec = _run_small("fpt_search", 3, _CorruptingCli(cli, "mincore"), hc)
    expect(failed == sum(rec.runs) == 6, "error rate is 1 when every op's stdout is corrupted")


def test_traced_counts(hc, cli) -> None:
    counts = []
    for _ in range(2):
        row = []
        for name in ("fpt_search", "certify"):
            tracer = tracing.Tracer()
            failed, _, _ = _run_small(name, 4, cli, hc, tracer)
            expect(failed == 0, f"traced {name} ops pass their checks")
            m = tracing.layer_metrics(tracer)
            row.append((m["mincore.attempts"], m["oracle.subsets"], m["hypergraph.Hypergraph.incidences"]))
        counts.append(row)
    expect(counts[0] == counts[1], f"exact counts repeat across traced runs {counts[0]}")
    expect(all(value > 0 for value in counts[0][0][::2]), "fpt_search counts attempts and incidences")
    expect(counts[0][1][1] > 0, "certify counts oracle subsets")
    expect(cli.main.__module__ == "hypercore.cli" and not hasattr(cli.main, "__wrapped__"),
           "tracing is removed after the traced pass")

    original = hc.bounds.bound_report
    del sys.modules["hypercore.bounds"].bound_report
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        m = tracing.layer_metrics(tracer)
        expect(m["bounds.bound_report.calls"] == 0, "a traced name missing from the package reports zero")
    finally:
        hc.bounds.bound_report = original


def test_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    layer_names = set(tracing.layer_metrics(tracing.Tracer())) | {"trace_overhead_frac"}
    expect({m["name"] for m in spec["per_layer"]} == layer_names, "per_layer names match the traced metrics")
    values = run.end_to_end([3.0, 1.0, 2.0], [(0, 0.001), (1, 0.003), (0, 0.002), (1, 0.004)], 2.0)
    expect({m["name"] for m in spec["end_to_end"]} == set(values), "end_to_end names match the runner's metrics")
    expect(values["setup_s"] == 2.0 and values["ops_per_s"] == 2.0, "setup median and throughput")
    expect(close(values["op_p50_ms"], 2.0) and close(values["op_p90_ms"], 4.0), "latency percentiles in ms")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workloads match")


def main() -> int:
    test_percentile()
    test_self_time()
    test_benchmark_json()
    hc, cli = run.import_hypercore()
    workdir = run.WORK_DIR / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        test_outputs(hc, cli)
        test_traced_counts(hc, cli)
    finally:
        os.chdir(cwd)
        run.remove_workdir(workdir)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
