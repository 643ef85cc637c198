"""Command line surface: formats, exit codes, determinism."""

import itertools
import os
import random
import resource
import stat
import subprocess
import sys
import time

import pytest

from hypercore import mincore
from hypercore import HceParseError, Hypergraph, generate_random, read_instance, write_instance
from hypercore.cli import build_parser, main
from hypercore.reductions import read_minrep
from test_hypergraph import MALFORMED

PATH_TEXT = "p hce 3 2\ne 2 1 2\ne 2 2 3\n"
TRIANGLE_TEXT = "p hce 3 3\ne 2 1 2\ne 2 2 3\ne 2 1 3\n"


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "hypercore", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.hce"
    f.write_text(PATH_TEXT)
    return str(f)


@pytest.fixture
def triangle_file(tmp_path):
    f = tmp_path / "tri.hce"
    f.write_text(TRIANGLE_TEXT)
    return str(f)


def test_peel_path(path_file):
    res = run("peel", path_file)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "s 1 2"
    assert lines[1] == "radius 1"
    assert lines[2] == "layer 1: 1 2"


def test_peel_triangle_failure_message(triangle_file):
    res = run("peel", triangle_file)
    assert res.returncode == 1
    assert res.stdout.strip() == "no core of size n-m possible"


def test_check_core_yes_no(tmp_path, capsys, path_file, triangle_file):
    core = tmp_path / "core.txt"
    core.write_text("s 1 1\n")
    res = run("check-core", triangle_file, str(core))
    assert res.returncode == 0
    assert res.stdout.startswith("verdict core")
    empty = tmp_path / "empty.txt"
    empty.write_text("s 0\n")
    res = run("check-core", triangle_file, str(empty))
    assert res.returncode == 1
    assert "not-a-core" in res.stdout
    inside = tmp_path / "inside.txt"
    inside.write_text("s 2 1 2\n")
    assert main(["check-core", path_file, str(inside)]) == 0
    assert capsys.readouterr().out == (
        "verdict core\ncontained 1\nlayer 1: 2\n"
        "vertex 1 layer 0\nvertex 2 layer 0\nvertex 3 layer 1\n"
    )


def test_check_core_thresholds_flag(tmp_path):
    inst = tmp_path / "t.hce"
    inst.write_text("p hce 3 1\ne 3 1 2 3\nt 1 1\n")
    core = tmp_path / "c.txt"
    core.write_text("s 1 1\n")
    assert run("check-core", str(inst), str(core)).returncode == 1
    assert run("check-core", str(inst), str(core), "--thresholds").returncode == 0


def test_radius_command(tmp_path, triangle_file):
    core = tmp_path / "core.txt"
    core.write_text("s 1 1\n")
    res = run("radius", triangle_file, str(core))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "radius 2"
    core.write_text("s 0\n")
    res = run("radius", triangle_file, str(core))
    assert res.returncode == 1
    assert res.stdout.strip() == "not a core"


def test_mincore_command(triangle_file):
    res = run("mincore", triangle_file, "--max-a", "1")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "a 1"
    assert lines[1] == "s 1 3"
    assert lines[2] == "radius 2"
    assert lines[3] == "deleted 1"
    res = run("mincore", triangle_file, "--max-a", "0")
    assert res.returncode == 1


def test_oracle_command(triangle_file):
    res = run("oracle", triangle_file, "--budget", "18")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "size 1"
    res = run("oracle", triangle_file, "--budget", "18", "--min-radius")
    assert "min-radius 2" in res.stdout
    res = run("oracle", triangle_file, "--budget", "2")
    assert res.returncode == 3


def test_oracle_negative_budget_exits_2(triangle_file):
    res = run("oracle", triangle_file, "--budget", "0")
    assert res.returncode == 3 and res.stdout == ""
    res = run("oracle", triangle_file, "--budget", "-1")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: oracle budget caps must be non-negative")


def test_gen_deterministic_and_parseable(tmp_path):
    a = run("gen", "--n", "6", "--m", "5", "--emin", "2", "--emax", "3", "--seed", "9")
    b = run("gen", "--n", "6", "--m", "5", "--emin", "2", "--emax", "3", "--seed", "9")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    inst = tmp_path / "gen.hce"
    inst.write_text(a.stdout)
    assert run("peel", str(inst)).returncode in (0, 1)


def test_gen_bad_params_exit_2():
    res = run("gen", "--n", "3", "--m", "2", "--emin", "0", "--emax", "2", "--seed", "1")
    assert res.returncode == 2


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.hce"
    bad.write_text("p hce 3 1\ne 3 1 2\n")
    res = run("peel", str(bad))
    assert res.returncode == 2
    assert "line 2" in res.stderr


def _address_space_cap():
    """Cap this child process at 1 GB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_huge_header_exits_2_before_allocating(tmp_path):
    """A 20-byte file declaring 10^11 vertices is an input error on its
    header's line, found before the reader builds anything: under a 1 GB
    address-space cap on the child alone, ``peel`` exits 2 at once."""
    huge = tmp_path / "huge.hce"
    huge.write_text("p hce 99999999999 0\n")
    assert huge.stat().st_size == 20
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "hypercore", "peel", str(huge)],
        capture_output=True,
        text=True,
        preexec_fn=_address_space_cap,
        timeout=60,
    )
    assert res.returncode == 2, res.stderr
    assert "line 1: header declares 99999999999 vertices and edges" in res.stderr
    assert time.perf_counter() - start < 5
    with pytest.raises(HceParseError, match="^line 2: header declares 10000001 ") as err:
        read_instance("c\np hce 5000000 5000001\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ["gen", "--n", "99999999999", "--m", "0", "--emin", "1", "--emax", "1", "--seed", "0"],
            None,
            "error: n + m = 99999999999 is over 10000000",
        ),
        (
            ["reduce", "minrep", "{file}", "-o", "{out}"],
            "p minrep 100000 100000 100000 100000\n",
            "error: line 1: header declares 20000000000 nodes, over 10000000",
        ),
        (
            ["gen", "--n", "3", "--m", "-1", "--emin", "1", "--emax", "2", "--seed", "0"],
            None,
            "error: counts must be non-negative",
        ),
    ],
    ids=["gen", "reduce-minrep", "gen-negative"],
)
def test_huge_declared_sizes_exit_2_before_allocating(tmp_path, argv, text, message):
    """``gen`` sizes and a MinRep header over the instance reader's cap,
    and a negative ``gen`` count, are input errors, found before anything
    is built: under a 1 GB address-space cap on the child alone, each
    command exits 2 at once."""
    src = tmp_path / "huge.txt"
    if text is not None:
        src.write_text(text)
    argv = [a.format(file=src, out=tmp_path / "out.hce") for a in argv]
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "hypercore", *argv],
        capture_output=True,
        text=True,
        preexec_fn=_address_space_cap,
        timeout=60,
    )
    assert (res.returncode, res.stdout) == (2, ""), res.stderr
    assert res.stderr.strip() == message
    assert time.perf_counter() - start < 5
    assert not (tmp_path / "out.hce").exists()


def test_huge_declared_sizes_refused_at_the_cap():
    with pytest.raises(ValueError, match="^n \\+ m = 10000001 is over 10000000$"):
        generate_random(10**7 + 1, 0, 1, 1, 0)
    with pytest.raises(ValueError, match="^n \\+ m = 10000001 is over"):
        generate_random(5 * 10**6, 5 * 10**6 + 1, 1, 1, 0)
    at_cap = read_minrep("p minrep 1 5000000 2 2500000\ne 1 1\n")
    assert (at_cap.num_a, at_cap.num_b, at_cap.edges) == (5 * 10**6, 5 * 10**6, ((0, 0),))
    with pytest.raises(HceParseError, match="^line 2: header declares 10000001 nodes") as err:
        read_minrep("c\np minrep 1 5000000 1 5000001\n")
    assert err.value.line == 2


def test_cli_import_leaves_out_the_process_pool():
    """Only ``mincore`` with two or more workers starts a process pool, and
    only then imports it: importing the CLI loads neither the pool module
    nor ``multiprocessing``."""
    code = (
        "import sys, hypercore.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr


@pytest.mark.parametrize("reader, text, line", MALFORMED)
def test_malformed_file_exits_2_with_line(tmp_path, capsys, reader, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    inst = tmp_path / "path.hce"
    inst.write_text(PATH_TEXT)
    out = str(tmp_path / "out.hce")
    argv = {
        "read_instance": ["peel", str(bad)],
        "read_vertex_set": ["check-core", str(inst), str(bad)],
        "read_filtration": ["convert", "filtration-to-core", str(inst), str(bad)],
        "read_setcover": ["reduce", "setcover", str(bad), "-o", out],
        "read_minrep": ["reduce", "minrep", str(bad), "-o", out],
        "read_cnf": ["reduce", "3sat", str(bad), "-k", "4", "-o", out],
    }[reader.__name__]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {line}:" in captured.err


@pytest.mark.parametrize(
    "command, text, line",
    [
        pytest.param("check-core", "s 1 9\n", 1, id="core-vertex"),
        pytest.param("radius", "c core\ns 2 1 4\n", 2, id="radius-core-vertex"),
        pytest.param("core-to-filtration", "s 1 4\n", 1, id="convert-core-vertex"),
        pytest.param("filtration-to-core", "f 1 9\no 1 2\no 2 3\n", 1, id="foundation-vertex"),
        pytest.param("filtration-to-core", "f 1 1\no 1 2\no 9\n", 3, id="order-edge"),
        pytest.param("filtration-to-core", "f 1 1\no 1 9\no 2 3\n", 2, id="order-vertex"),
        pytest.param("filtration-to-core", "f 1 1\no 1 2\no 1 3\n", 3, id="order-repeats-edge"),
        pytest.param("filtration-to-core", "c short\nf 1 1\no 1 2\n", 2, id="order-skips-edge"),
    ],
)
def test_out_of_range_index_exits_2_with_line(tmp_path, capsys, path_file, command, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if command in ("check-core", "radius"):
        argv = [command, path_file, str(bad)]
    else:
        argv = ["convert", command, path_file, str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {line}:" in captured.err


# One valid file of each line-record format, with the commands that read it
# as ``{file}``; ``{instance}``, ``{core}`` and ``{filtration}`` name valid
# files of the other formats.
CONTRACT_FILES = {
    "instance": (
        "p hce 4 3\nc example\nl 1 a\ne 2 1 2\ne 3 2 3 4\ne 2 1 4\nt 2 1\n",
        [
            ["peel", "{file}"],
            ["mincore", "{file}", "--max-a", "2"],
            ["oracle", "{file}", "--budget", "10", "--min-radius", "--thresholds"],
            ["bounds", "{file}", "--core-size", "1"],
            ["check-core", "{file}", "{core}", "--thresholds"],
            ["radius", "{file}", "{core}"],
            ["convert", "core-to-filtration", "{file}", "{core}", "-o", "{out}"],
            ["convert", "filtration-to-core", "{file}", "{filtration}"],
        ],
    ),
    "core": (
        "c core\ns 1 1\n",
        [
            ["check-core", "{instance}", "{file}"],
            ["radius", "{instance}", "{file}", "--thresholds"],
            ["convert", "core-to-filtration", "{instance}", "{file}"],
        ],
    ),
    "filtration": (
        "f 1 1\no 1 2\no 3 4\no 2 3\n",
        [["convert", "filtration-to-core", "{instance}", "{file}", "-o", "{out}"]],
    ),
    "setcover": (
        "p sc 3 3\ns 2 1 2\ns 2 2 3\ns 1 3\n",
        [
            ["reduce", "setcover", "{file}", "-o", "{out}"],
            ["reduce", "setcover3", "{file}", "-o", "{out}"],
        ],
    ),
    "minrep": ("p minrep 1 2 1 1\ne 1 1\ne 2 1\n", [["reduce", "minrep", "{file}", "-o", "{out}"]]),
    "cnf": ("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n", [["reduce", "3sat", "{file}", "-k", "4", "-o", "{out}"]]),
}


def _mutate(text, rng):
    """``text`` with one seeded change: a field dropped, a line duplicated,
    two lines swapped, the header dropped, or a number replaced by 0, -1,
    one above the file's largest number, or a non-integer.  No count grows
    beyond that, so every mutant stays small."""
    lines = text.splitlines() or [""]
    i = rng.randrange(len(lines))
    numbers = [
        (r, c, int(f))
        for r, line in enumerate(lines)
        for c, f in enumerate(line.split())
        if f.lstrip("-").isdigit()
    ]
    change = rng.randrange(5 if numbers else 4)
    if change == 0:
        fields = lines[i].split()
        if fields:
            del fields[rng.randrange(len(fields))]
        lines[i] = " ".join(fields)
    elif change == 1:
        lines.insert(i, lines[i])
    elif change == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif change == 3:
        lines = [line for line in lines if not line.startswith("p ")]
    else:
        r, c, _ = rng.choice(numbers)
        top = max(abs(x) for _, _, x in numbers)
        fields = lines[r].split()
        fields[c] = rng.choice(["0", "-1", str(top + 1), "1.5", "x"])
        lines[r] = " ".join(fields)
    return "".join(line + "\n" for line in lines)


def test_exit_codes_stay_0_to_3_on_mutated_files(tmp_path, capsys):
    """The CLI's exit-code contract: on one or two seeded mutations of a
    valid file of every line-record format, ``cli.main`` returns 0-3 and
    never raises, and every exit 2 or 3 prints an ``error:`` line.  The
    oracle's budget and ``--max-a`` keep each command small."""
    names = {"out": tmp_path / "out.txt"}
    for kind, (text, _) in CONTRACT_FILES.items():
        names[kind] = tmp_path / f"{kind}.txt"
        names[kind].write_text(text)
    rng = random.Random(19)
    codes = set()
    for kind, (text, commands) in CONTRACT_FILES.items():
        for trial in range(101):
            mutated = text
            for _ in range(trial and rng.randint(1, 2)):
                mutated = _mutate(mutated, rng)
            mutant = tmp_path / "mutant.txt"
            mutant.write_text(mutated)
            for command in commands:
                argv = [a.format(file=mutant, **names) for a in command]
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), (argv, mutated)
                assert trial or code in (0, 1), (argv, err)
                assert code < 2 or err.startswith("error: "), (argv, err)
                codes.add(code)
    assert {0, 2} <= codes


@pytest.mark.parametrize("kind", ["instance", "core", "filtration", "cnf"])
def test_text_that_is_not_utf8_exits_2_with_its_line(tmp_path, capsys, kind):
    """A byte that is not UTF-8 fails on its own line, whatever the line
    ends and however many multi-byte characters come before it."""
    names = {"out": tmp_path / "out.txt"}
    for other, (text, _) in CONTRACT_FILES.items():
        names[other] = tmp_path / f"{other}.txt"
        names[other].write_text(text)
    text, commands = CONTRACT_FILES[kind]
    lines = ["c é ü ", *text.splitlines()]
    argv = [a.format(file=names[kind], **names) for a in commands[0]]
    ends = ("\n", "\r\n", "\r")
    for row, end, bad in itertools.product(range(len(lines)), ends, (b"\xff", b"\xc3")):
        data = end.join(lines).encode() + end.encode()
        at = len(end.join(lines[: row + 1]).encode())  # the end of the row
        names[kind].write_bytes(data[:at] + bad + data[at:])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {row + 1}: text is not UTF-8: ")


def test_repeated_in_process_calls_share_one_parser(tmp_path, capsys, path_file, triangle_file):
    core = tmp_path / "core.txt"
    core.write_text("s 1 2\n")
    commands = [
        ["peel", path_file],
        ["peel", triangle_file],
        ["radius", path_file, str(core)],
        ["mincore", triangle_file, "--max-a", "1"],
        ["check-core", triangle_file, str(tmp_path / "missing.txt")],
    ]
    rounds = []
    for _ in range(2):
        outcome = []
        for argv in commands:
            code = main(argv)
            outcome.append((code, capsys.readouterr().out))
        rounds.append(outcome)
    assert rounds[0] == rounds[1]
    assert [code for code, _ in rounds[0]] == [0, 1, 0, 0, 2]
    assert build_parser() is build_parser()


def test_reduce_3sat_k_guard(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    out = tmp_path / "out.hce"
    res = run("reduce", "3sat", str(cnf), "-k", "3", "-o", str(out))
    assert res.returncode == 2
    assert main(["reduce", "3sat", str(cnf), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: reduce 3sat needs -k\n"
    res = run("reduce", "3sat", str(cnf), "-k", "4", "-o", str(out))
    assert res.returncode == 0
    assert out.exists()
    assert res.stdout.splitlines()[0] == "n 20"


def test_reduce_setcover_roundtrip(tmp_path):
    sc = tmp_path / "inst.sc"
    sc.write_text("p sc 3 3\ns 1 1\ns 2 1 2\ns 1 3\n")
    out = tmp_path / "out.hce"
    res = run("reduce", "setcover", str(sc), "-o", str(out))
    assert res.returncode == 0
    assert "n 12" in res.stdout and "m 17" in res.stdout
    assert run("oracle", str(out), "--budget", "12").stdout.splitlines()[0] == "size 2"


def test_reduce_empty_universe(tmp_path, capsys):
    sc = tmp_path / "empty.sc"
    sc.write_text("p sc 0 1\ns 0\n")
    out = str(tmp_path / "out.hce")
    assert main(["reduce", "setcover3", str(sc), "-o", out]) == 2
    assert "non-empty universe" in capsys.readouterr().err
    assert main(["reduce", "setcover", str(sc), "-o", out]) == 0
    assert capsys.readouterr().out == "n 2\nm 3\n"


def test_convert_round_trip(tmp_path, path_file):
    core = tmp_path / "core.txt"
    core.write_text("s 1 2\n")
    filt = tmp_path / "filt.txt"
    res = run("convert", "core-to-filtration", path_file, str(core), "-o", str(filt))
    assert res.returncode == 0
    assert filt.read_text().splitlines()[0] == "f 1 2"
    res = run("convert", "filtration-to-core", path_file, str(filt))
    assert res.returncode == 0
    assert res.stdout == "s 1 2\n"


def test_bounds_output(path_file):
    res = run("bounds", path_file, "--core-size", "1")
    assert res.returncode == 0
    lines = dict(
        line.split(": ", 1) for line in res.stdout.splitlines() if ": " in line
    )
    assert lines["j"] == "2"
    assert lines["d"] == "2"
    assert lines["diameter"] == "2"
    assert lines["diameter_bound"] == "1"
    assert lines["neighbor_degenerate"] == "no"


def test_jobs_flag_never_changes_bytes(tmp_path):
    inst = tmp_path / "g.hce"
    edges = Hypergraph(7, [(0, 1, 2), (2, 3), (3, 4, 5), (5, 6), (0, 6), (1, 4)])
    inst.write_text(write_instance(edges))
    base = run("mincore", str(inst), "--max-a", "7", "--jobs", "1")
    assert base.returncode == 0
    for jobs in ("2", "4"):
        again = run("mincore", str(inst), "--max-a", "7", "--jobs", jobs)
        assert again.stdout == base.stdout
        assert again.returncode == base.returncode


def test_mincore_below_the_start_level_exits_1_at_once(tmp_path):
    """K10, the 45 two-vertex edges on 10 vertices, is one component with
    no size-1 edge, so by lemma 6' of ``mincore_fpt`` no deletion of fewer
    than 45 - 10 + 1 = 36 edges peels it.  ``--max-a 35`` tries no level:
    it exits 1 at once, where lemma 6 alone left C(45, 35) deletions."""
    k10 = Hypergraph(10, list(itertools.combinations(range(10), 2)))
    kernel = mincore._Kernel(k10)
    assert (kernel.dual.n, kernel.dual.m, kernel.start) == (45, 10, 36)
    inst = tmp_path / "k10.hce"
    inst.write_text(write_instance(k10))
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "hypercore", "mincore", str(inst), "--max-a", "35"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert res.returncode == 1, res.stderr
    assert res.stdout == "no core of size n-m+a possible for any a <= 35\n"
    assert res.stderr == ""


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_2(path_file, capsys, jobs):
    assert main(["mincore", path_file, "--max-a", "1", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: jobs must be at least 1\n"


def test_mincore_output_unchanged_under_optimize_flag(tmp_path):
    """``python -O`` strips asserts; the search must not depend on them."""
    inst = tmp_path / "g.hce"
    inst.write_text(write_instance(generate_random(12, 11, 2, 3, seed=0)))
    argv = ["-m", "hypercore", "mincore", str(inst), "--max-a", "3", "--jobs", "1"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout.startswith(b"a 3\n")
    assert optimized.stdout == plain.stdout


GEN_ARGV = ["gen", "--n", "6", "--m", "5", "--emin", "2", "--emax", "3", "--seed", "9"]


def _gen_to(output, capsys):
    """Run ``gen -o output`` in process; returns its stdout, which is also
    the text written to the output file."""
    assert main([*GEN_ARGV, "-o", str(output)]) == 0
    return capsys.readouterr().out


def test_longer_existing_output_is_cut_to_the_new_bytes(tmp_path, capsys):
    sc = tmp_path / "inst.sc"
    sc.write_text("p sc 3 3\ns 1 1\ns 2 1 2\ns 1 3\n")
    fresh, reused = tmp_path / "fresh.hce", tmp_path / "reused.hce"
    reused.write_bytes(b"x" * 10_000)
    for out in (fresh, reused):
        assert main(["reduce", "setcover", str(sc), "-o", str(out)]) == 0
    assert capsys.readouterr().out == "n 12\nm 17\n" * 2
    assert fresh.read_bytes().startswith(b"p hce 12 17\n")
    assert reused.read_bytes() == fresh.read_bytes()


def test_output_file_keeps_inode_permissions_and_hard_links(tmp_path, capsys):
    out = tmp_path / "g.hce"
    out.write_text("old\n")
    out.chmod(0o640)
    os.link(out, tmp_path / "hard.hce")
    before = out.stat()
    text = _gen_to(out, capsys)
    after = out.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert (tmp_path / "hard.hce").read_text(encoding="utf-8") == text


def test_output_through_symlink_updates_target(tmp_path, capsys):
    target = tmp_path / "real.hce"
    target.write_text("old contents, longer than nothing\n" * 20)
    link = tmp_path / "link.hce"
    link.symlink_to(target)
    text = _gen_to(link, capsys)
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == text


def test_convert_to_dev_null(tmp_path, capsys, path_file):
    core = tmp_path / "core.txt"
    core.write_text("s 1 2\n")
    argv = ["convert", "core-to-filtration", path_file, str(core)]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "-o", os.devnull]) == 0
    assert capsys.readouterr().out == plain
    assert plain.splitlines()[0] == "f 1 2"


def test_new_output_file_gets_the_umask_mode(tmp_path, capsys):
    old_mask = os.umask(0o027)
    try:
        ref = tmp_path / "ref.hce"
        ref.write_text("")  # open(path, "w") under the same umask
        out = tmp_path / "new.hce"
        text = _gen_to(out, capsys)
    finally:
        os.umask(old_mask)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o640
    assert out.read_text(encoding="utf-8") == text
