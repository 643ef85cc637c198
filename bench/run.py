"""Closed-loop benchmark of the hypercore CLI, run in-process.

Usage, from the repository root::

    python3 bench/run.py --workload peel_pipeline --seed 1 --seconds 20 --trace 0

One process runs one workload with one client: each op is one
``hypercore.cli.main(argv)`` call on generated input files with stdout
captured, and the next op starts when the previous one returns.  The
program is imported from ``src/`` of the checkout that holds this file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
timed section, then one traced pass over the run's op list, and reports
the per-layer metrics (see ``tracing.py``) and the tracing overhead.  Both
modes check every op's exit code and stdout against ``expected.json`` and
against the workload's semantic cross-checks; a wrong op counts as failed
and the run goes on.  The last stdout line is the result object; the line
before it carries the details (error rate, sample counts, provenance).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS, Item, Step  # noqa: E402

DEFAULT_SEED = 1
# Reserved for confirming a claimed gain on inputs not used while the change
# was written; do not tune against it.
HOLDOUT_SEED = 7919
SETUP_REPEATS = 7
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected.json"


class Op(NamedTuple):
    item: Item
    step: Step


def import_hypercore():
    """Import (or re-import) the package from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "hypercore").is_dir():
        raise SystemExit(f"error: no hypercore sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "hypercore" or n.startswith("hypercore.")]:
        del sys.modules[name]
    hc = importlib.import_module("hypercore")
    cli = importlib.import_module("hypercore.cli")
    if Path(hc.__file__).resolve().parent != (src / "hypercore").resolve():
        raise SystemExit(f"error: imported hypercore from {hc.__file__}")
    return hc, cli


def setup(workload, keys, workdir: Path):
    """Import the package, then generate and write the run's input files."""
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = perf_counter()
    hc, cli = import_hypercore()
    workdir.mkdir(parents=True)
    items = [workload.build(key) for key in keys]
    write_inputs(items, workdir)
    return perf_counter() - t0, hc, cli, items


def remove_workdir(workdir: Path) -> None:
    """Delete a run's inputs, and their parent once no other run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()


def write_inputs(items, directory: Path) -> None:
    for item in items:
        for name, text in item.files.items():
            (directory / name).write_text(text, encoding="utf-8")


def op_list(items) -> list[Op]:
    return [Op(item, step) for item in items for step in item.steps]


def run_op(cli, argv):
    """One CLI call with stdout and stderr captured; latency is around main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code
        except Exception as exc:  # a crashing op is a failed op, not a failed run
            rc = f"raised-{type(exc).__name__}"
        elapsed = perf_counter() - t0
    return rc, out.getvalue(), elapsed


class Recorder:
    """First output of each op, later outputs compared with it."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple] = {}
        self.runs = [0] * len(ops)
        self.changed = [0] * len(ops)

    def record(self, index: int, rc, out: str) -> None:
        self.runs[index] += 1
        first = self.first.get(index)
        if first is None:
            self.first[index] = (rc, out)
            chain = self.ops[index].step.chain
            if chain and rc == 0 and out:
                Path(chain).write_text(out.splitlines()[0] + "\n", encoding="utf-8")
        elif first != (rc, out):
            self.changed[index] += 1


def timed_section(cli, ops, recorder, seconds: float, min_ops: int):
    """Run whole passes over ``ops`` until ``seconds`` have passed and at
    least ``min_ops`` ops ran; returns per-op latencies and the wall time
    without the bookkeeping between ops.  Stopping only between passes keeps
    the mix of ops, and so the throughput, independent of where time ran out."""
    latencies: list[tuple[int, float]] = []
    bookkeeping = 0.0
    start = perf_counter()
    i = 0
    while True:
        index = i % len(ops)
        rc, out, elapsed = run_op(cli, ops[index].step.argv)
        t0 = perf_counter()
        recorder.record(index, rc, out)
        latencies.append((index, elapsed))
        i += 1
        now = perf_counter()
        bookkeeping += now - t0
        if i % len(ops) == 0 and i >= min_ops and now - start >= seconds:
            return latencies, now - start - bookkeeping


def traced_pass(cli, ops, recorder, tracer):
    latencies = []
    tracer.install()
    try:
        for index, op in enumerate(ops):
            tracer.op_id = index
            rc, out, elapsed = run_op(cli, op.step.argv)
            recorder.record(index, rc, out)
            latencies.append((index, elapsed))
    finally:
        tracer.uninstall()
    return latencies


def digest(rc, out: str) -> str:
    return f"{rc}:{hashlib.sha256(out.encode('utf-8')).hexdigest()[:12]}"


def verify(workload, items, ops, recorder, expected, hc):
    """Count failed op runs and list why; runs after all timing.

    An op whose first output misses the record or a cross-check fails on
    every run; otherwise each later run whose output differs fails.
    """
    bad: dict[int, str] = {}
    index_of = {(op.item.key, op.step.name): index for index, op in enumerate(ops)}
    for item in items:
        outs = {step.name: recorder.first[index_of[(item.key, step.name)]] for step in item.steps}
        for step, want in zip(item.steps, expected[item.key].split()[1:]):
            if digest(*outs[step.name]) != want:
                bad[index_of[(item.key, step.name)]] = (
                    f"{item.key} {step.name}: stdout or exit code differs from the record"
                )
        try:
            reasons = workload.check(item, outs, hc)
        except Exception as exc:  # unparsable output fails every step of the item
            reasons = {step.name: f"check raised {exc!r}" for step in item.steps}
        for step_name, why in reasons.items():
            bad.setdefault(index_of[(item.key, step_name)], f"{item.key} {step_name}: {why}")
    failed = 0
    reasons = sorted(bad.values())
    for index, op in enumerate(ops):
        if index in bad:
            failed += recorder.runs[index]
        elif recorder.changed[index]:
            failed += recorder.changed[index]
            reasons.append(f"{op.item.key} {op.step.name}: output changed between runs")
    return failed, reasons


def percentile(values, q: float):
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(setup_times, latencies, wall: float) -> dict[str, float]:
    samples = [elapsed * 1e3 for _, elapsed in latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(samples) / wall,
        "op_p50_ms": percentile(samples, 50)[0],
        "op_p90_ms": percentile(samples, 90)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def overhead_fraction(untraced, traced) -> float:
    """Share of throughput lost to tracing on the same op list: each op's
    median untraced latency against its traced latency."""
    by_op: dict[int, list[float]] = {}
    for index, elapsed in untraced:
        by_op.setdefault(index, []).append(elapsed)
    base = sum(statistics.median(by_op[index]) for index, _ in traced)
    return 1.0 - base / sum(elapsed for _, elapsed in traced)


def load_expected(workload_name: str) -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)[workload_name]


def metric_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = os.getloadavg()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    workload = WORKLOADS[args.workload]
    expected = load_expected(workload.name)
    keys = workload.select(args.seed, expected)
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            elapsed, hc, cli, items = setup(workload, keys, workdir)
            setup_times.append(elapsed)
        os.chdir(workdir)
        ops = op_list(items)
        recorder = Recorder(ops)
        latencies, wall = timed_section(
            cli, ops, recorder, args.seconds, max(MIN_OPS, len(ops))
        )
        if args.trace:
            tracer = tracing.Tracer()
            traced = traced_pass(cli, ops, recorder, tracer)
        os.chdir(cwd)
        failed, reasons = verify(workload, items, ops, recorder, expected, hc)
    finally:
        os.chdir(cwd)
        remove_workdir(workdir)

    attempted = sum(recorder.runs)
    if args.trace:
        values = tracing.layer_metrics(tracer)
        values["trace_overhead_frac"] = overhead_fraction(latencies, traced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write(spans_file)
    else:
        values = end_to_end(setup_times, latencies, wall)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "pool_items": len(keys),
        "ops_in_list": len(ops),
        "timed_ops": len(latencies),
        "op_p90_samples_beyond": percentile([e for _, e in latencies], 90)[1],
        "error_rate": failed / attempted,
        "failures": reasons[:20],
        "setup_s_each": setup_times,
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    }
    if args.trace:
        detail["spans"] = len(tracer)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
