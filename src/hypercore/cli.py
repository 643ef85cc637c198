"""Command line front end.

Exit codes: 0 success / answer yes, 1 answer no / not found, 2 input
error, 3 enumeration budget exceeded.  All user-facing vertex and edge
numbers are 1-based, matching the file formats.  Output depends only on
the inputs and flags; ``--jobs`` affects wall time, never bytes.

Output files (``-o``) are written in place and then cut to the new
length, with no ``fsync``: an existing file keeps its inode, permissions
and hard links, a symlink is written through, and a new file is created
under the umask.  Truncating a file to zero before rewriting it can stall
for tens of milliseconds in the kernel; overwriting does not.  There is no
crash-durability promise: a crash mid-write can leave old bytes past the
new ones rather than a short file.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from typing import Optional, Sequence

from . import bounds as bounds_mod
from . import filtration as filtration_mod
from .hypergraph import (
    HceParseError,
    generate_random,
    read_instance,
    read_vertex_set,
    write_instance,
    write_vertex_set,
)
from .mincore import NoCoreOfSizeNM, NotFoundWithin, mincore_fpt, peel_nm
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    oracle_min_core,
    oracle_min_radius_over_min_cores,
)
from .propagation import propagate, trace_report
from .reductions import (
    minrep_to_mincore,
    read_cnf,
    read_minrep,
    read_setcover,
    setcover_to_mincore,
    setcover_to_mincore_3uniform,
    threesat_to_mincore_radius,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        # /dev/null, FIFOs and terminals cannot be truncated
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _load_instance(path: str, use_thresholds: bool):
    graph, thresholds = read_instance(_read_text(path))
    return graph, (thresholds if use_thresholds else None)


def _core_line(vertices) -> str:
    return write_vertex_set(vertices).rstrip("\n")


def _cmd_check_core(args) -> int:
    graph, thresholds = _load_instance(args.instance, args.thresholds)
    core = read_vertex_set(_read_text(args.core), graph.n)
    trace = propagate(graph, core, thresholds)
    sys.stdout.write(trace_report(trace))
    return EXIT_OK if trace.verdict else EXIT_NO


def _cmd_peel(args) -> int:
    graph, _ = _load_instance(args.instance, False)
    try:
        result = peel_nm(graph)
    except NoCoreOfSizeNM as exc:
        print(exc)
        return EXIT_NO
    print(_core_line(result.core))
    print(f"radius {result.radius}")
    for depth, layer in enumerate(result.layers, start=1):
        print(f"layer {depth}: " + " ".join(str(i + 1) for i in layer))
    return EXIT_OK


def _cmd_mincore(args) -> int:
    graph, _ = _load_instance(args.instance, False)
    try:
        result = mincore_fpt(graph, args.max_a, jobs=args.jobs)
    except NotFoundWithin as exc:
        print(exc)
        return EXIT_NO
    print(f"a {result.parameter_a}")
    print(_core_line(result.core))
    print(f"radius {result.radius}")
    if result.deleted_edges:
        print("deleted " + " ".join(str(i + 1) for i in result.deleted_edges))
    else:
        print("deleted none")
    return EXIT_OK


def _cmd_radius(args) -> int:
    graph, thresholds = _load_instance(args.instance, args.thresholds)
    core = read_vertex_set(_read_text(args.core), graph.n)
    trace = propagate(graph, core, thresholds)
    if not trace.verdict:
        print("not a core")
        return EXIT_NO
    print(f"radius {trace.radius}")
    sys.stdout.write(trace_report(trace))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    graph, thresholds = _load_instance(args.instance, args.thresholds)
    budget = OracleBudget(max_vertices=args.budget)
    if args.min_radius:
        size, best_radius, witness = oracle_min_radius_over_min_cores(
            graph, thresholds, budget
        )
        print(f"size {size}")
        print(_core_line(witness))
        print(f"min-radius {best_radius}")
    else:
        size, witness = oracle_min_core(graph, thresholds, budget)
        print(f"size {size}")
        print(_core_line(witness))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    text = _read_text(args.input)
    if args.problem == "setcover":
        cert = setcover_to_mincore(read_setcover(text))
    elif args.problem == "setcover3":
        cert = setcover_to_mincore_3uniform(read_setcover(text))
    elif args.problem == "minrep":
        cert = minrep_to_mincore(read_minrep(text))
    else:  # 3sat
        if args.k is None:
            raise ValueError("reduce 3sat needs -k")
        cert = threesat_to_mincore_radius(read_cnf(text), args.k)
    _write_text(args.output, write_instance(cert.instance))
    print(f"n {cert.instance.n}")
    print(f"m {cert.instance.m}")
    return EXIT_OK


def _cmd_convert(args) -> int:
    graph, _ = _load_instance(args.instance, False)
    if args.direction == "core-to-filtration":
        core = read_vertex_set(_read_text(args.input), graph.n)
        filt = filtration_mod.core_to_filtration(graph, core)
        out_text = filtration_mod.write_filtration(filt)
    else:
        filt = filtration_mod.read_filtration(
            _read_text(args.input), graph.n, graph.m
        )
        core = filtration_mod.filtration_to_core(graph, filt)
        out_text = write_vertex_set(core)
    if args.output:
        _write_text(args.output, out_text)
    sys.stdout.write(out_text)
    return EXIT_OK


def _fmt(value: float, digits: int) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.{digits}f}"


def _cmd_bounds(args) -> int:
    graph, _ = _load_instance(args.instance, False)
    report = bounds_mod.bound_report(graph, args.core_size)
    print(f"j: {report.j_neighbors}")
    print(f"d: {report.d_degree}")
    print(f"diameter: {_fmt(report.diameter, 0)}")
    print(f"neighbor_bound: {_fmt(report.neighbor_bound, 6)}")
    print(f"degree_bound: {_fmt(report.degree_bound, 6)}")
    print(f"diameter_bound: {_fmt(report.diameter_bound, 0)}")
    print(f"neighbor_degenerate: {'yes' if report.neighbor_degenerate else 'no'}")
    print(f"degree_degenerate: {'yes' if report.degree_degenerate else 'no'}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    graph = generate_random(args.n, args.m, args.emin, args.emax, args.seed)
    text = write_instance(graph)
    if args.output:
        _write_text(args.output, text)
    sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so repeated :func:`main` calls share it."""
    parser = argparse.ArgumentParser(
        prog="hypercore",
        description="Hypergraph activation cores: checking, search, bounds,"
        " instance compilers and exhaustive certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-core", help="test a vertex set and dump its trace")
    p.add_argument("instance")
    p.add_argument("core")
    p.add_argument(
        "--thresholds",
        action="store_true",
        help="honor the instance's per-edge threshold lines",
    )
    p.set_defaults(func=_cmd_check_core)

    p = sub.add_parser("peel", help="find a core of size n-m with optimal radius")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_peel)

    p = sub.add_parser("mincore", help="parameterized minimum core search")
    p.add_argument("instance")
    p.add_argument("--max-a", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_mincore)

    p = sub.add_parser("radius", help="radius and layers of a given core")
    p.add_argument("instance")
    p.add_argument("core")
    p.add_argument("--thresholds", action="store_true")
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("oracle", help="exhaustive minimum core (ground truth)")
    p.add_argument("instance")
    p.add_argument("--min-radius", action="store_true")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--thresholds", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reduce", help="compile a source problem to an instance")
    p.add_argument("problem", choices=["setcover", "setcover3", "minrep", "3sat"])
    p.add_argument("input")
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("convert", help="switch between cores and filtrations")
    p.add_argument(
        "direction", choices=["core-to-filtration", "filtration-to-core"]
    )
    p.add_argument("instance")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("bounds", help="radius lower bounds for a core size")
    p.add_argument("instance")
    p.add_argument("--core-size", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("gen", help="deterministic random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--emin", type=int, required=True)
    p.add_argument("--emax", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (HceParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
