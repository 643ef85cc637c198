"""Workload definitions: input pools, per-seed selection and output checks.

Every workload draws its instances from a fixed, enumerable pool.  A pool
item is named by a key such as ``fpt:1234``; the key alone determines the
input files (generated here with the standard library, so the program only
ever sees the files) and the CLI commands run on them.  ``expected.json``
records, for every pool item, the exit code and a SHA-256 prefix of the
stdout of each command at the commit that defined the benchmark, plus the
class used to stratify selection.  A run's seed picks a stratified sample
of the pool, so every seed is checked byte for byte and the cost mix of a
run does not drift with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, log2
from typing import Optional

PEEL_N = 10_000
FPT_SHAPE = (24, 22, 2, 3)  # generate_random(n, m, emin, emax, seed)
FPT_MAX_A = 3
BOUNDS_CORE_SIZE = 2
SAT_K = 4
# Vertex budgets of the certify oracles: criterion 7's cap for compiled set
# covers, criterion 10's for the rest.  The CLI exposes no subset budget, so
# pool items whose oracle would visit more subsets than the acceptance gate
# of criteria 7 and 9 allows are not selected.
ORACLE_VERTEX_BUDGET = {"setcover3": 100, "minrep": 40, "3sat": 40}
ORACLE_SUBSET_GATE = 150_000


@dataclass
class Step:
    """One CLI command of a pool item; ``chain`` names the file that the
    first line of its stdout is written to before the next step runs."""

    name: str
    argv: list[str]
    chain: Optional[str] = None


@dataclass
class Item:
    key: str
    files: dict[str, str]
    steps: list[Step]
    facts: object = None  # what the generator knows and the checks need


# ---------------------------------------------------------------------------
# Input text, written without the program so that inputs never depend on it


def hce_text(n: int, edges) -> str:
    out = [f"p hce {n} {len(edges)}"]
    for e in edges:
        out.append(f"e {len(e)} " + " ".join(str(v + 1) for v in e))
    return "\n".join(out) + "\n"


def peelable_edges(n: int, seed: int) -> list[list[int]]:
    """The construction and RNG string of the acceptance suite's
    ``_peelable_instance`` (criterion 4): n vertices, n edges, peelable."""
    rng = random.Random(f"peelable:{n}:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for j in range(n):
        size = min(3, j + 1)
        picks = [order[j]]
        if size >= 2:
            lo = max(0, j - 50)
            picks += rng.sample(order[lo:j], size - 1)
        edges.append(sorted(picks))
    return edges


def random_edges(n: int, m: int, emin: int, emax: int, seed: int) -> list[list[int]]:
    """Same instance as ``hypercore.generate_random(n, m, emin, emax, seed)``."""
    rng = random.Random(f"hce:{n}:{m}:{emin}:{emax}:{seed}")
    edges = []
    for _ in range(m):
        size = rng.randint(emin, emax)
        edges.append(sorted(rng.sample(range(n), size)))
    return edges


def _numbered(values) -> str:
    return f"{len(values)} " + " ".join(str(x + 1) for x in sorted(values))


# ---------------------------------------------------------------------------
# Output parsing shared by the checks


def _lines(out: str) -> list[str]:
    return out.splitlines()


def _field(out: str, prefix: str) -> Optional[str]:
    for line in _lines(out):
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _vertex_line(line: str) -> frozenset[int]:
    nums = [int(x) for x in line.split()[1:]]
    if len(nums) != nums[0] + 1:
        raise ValueError(f"bad vertex-set line {line!r}")
    return frozenset(v - 1 for v in nums[1:])


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A pool of items, a seeded stratified selection and output checks."""

    name = ""
    PICKS: dict[str, int] = {}  # keys drawn per run from each group of the pool

    def pool(self) -> list[str]:
        raise NotImplementedError

    def build(self, key: str) -> Item:
        raise NotImplementedError

    def select(self, seed: int, expected: dict) -> list[str]:
        """The run's pool keys: a stratified sample drawn with ``seed``."""
        return _stratified(random.Random(f"{self.name}:{seed}"), expected, self.PICKS)

    def classify(self, item: Item, outs: dict) -> str:
        """Stratification class of a pool item from its recorded outputs."""
        return "all"

    def check(self, item: Item, outs: dict, hc) -> dict[str, str]:
        """Semantic cross-checks; maps a failing step name to the reason.

        ``outs`` maps each step name to ``(exit_code, stdout)`` and ``hc``
        is the imported ``hypercore`` package.
        """
        return {}


def _proportional(counts: dict[str, int], pick: int) -> dict[str, int]:
    """Largest-remainder split of ``pick`` over classes by their pool share."""
    total = sum(counts.values())
    shares = {cls: pick * count / total for cls, count in counts.items()}
    quotas = {cls: int(share) for cls, share in shares.items()}
    by_remainder = sorted(shares, key=lambda cls: (quotas[cls] - shares[cls], cls))
    for cls in by_remainder[: pick - sum(quotas.values())]:
        quotas[cls] += 1
    return quotas


def _stratified(rng: random.Random, expected: dict, picks: dict[str, int]) -> list[str]:
    """Sample ``picks[group]`` keys from each group of the pool (keys that
    start with ``group:``), spread over the recorded classes in proportion
    to the pool, so that the cost mix of a run does not drift with the seed.
    Items recorded as over budget are never picked."""
    keys: list[str] = []
    for group in sorted(picks):
        by_class: dict[str, list[str]] = {}
        for key in sorted(expected):
            cls = expected[key].split()[0]
            if key.startswith(group + ":") and cls != "over-budget":
                by_class.setdefault(cls, []).append(key)
        quotas = _proportional({c: len(v) for c, v in by_class.items()}, picks[group])
        for cls in sorted(by_class):
            keys += rng.sample(by_class[cls], quotas[cls])
    rng.shuffle(keys)
    return keys


class PeelPipeline(Workload):
    """Peelable n = m = 10^4 instances through peel, check-core, radius and
    both filtration conversions; each command re-reads the instance."""

    name = "peel_pipeline"
    POOL = 240
    PICKS = {"peel": 24}

    def pool(self):
        return [f"peel:{s}" for s in range(self.POOL)]

    def build(self, key):
        s = int(key.split(":")[1])
        inst, core, filt = f"peel{s}.hce", f"peel{s}.core", f"peel{s}.filt"
        return Item(
            key,
            {inst: hce_text(PEEL_N, peelable_edges(PEEL_N, s))},
            [
                Step("peel", ["peel", inst], chain=core),
                Step("check-core", ["check-core", inst, core]),
                Step("radius", ["radius", inst, core]),
                Step(
                    "core-to-filtration",
                    ["convert", "core-to-filtration", inst, core, "-o", filt],
                ),
                Step("filtration-to-core", ["convert", "filtration-to-core", inst, filt]),
            ],
        )

    def check(self, item, outs, hc):
        bad = {}
        peel_rc, peel_out = outs["peel"]
        if peel_rc != 0:
            return {"peel": "peelable instance not peeled"}
        core_line = _lines(peel_out)[0]
        if _vertex_line(core_line) != frozenset():
            bad["peel"] = "core of size n - m = 0 expected"
        if not outs["check-core"][1].startswith("verdict core\n"):
            bad["check-core"] = "peel's core rejected"
        if _field(outs["radius"][1], "radius ") != _field(peel_out, "radius "):
            bad["radius"] = "radius differs from peel's"
        if _lines(outs["filtration-to-core"][1]) != [core_line]:
            bad["filtration-to-core"] = "round trip lost peel's core"
        return bad


class FptSearch(Workload):
    """``mincore --max-a 3`` on generate_random(24, 22, 2, 3, s) instances."""

    name = "fpt_search"
    POOL = 1000
    PICKS = {"fpt": 100}  # classes: found at a = 0, 1, 2, 3, or not found within 3

    def pool(self):
        return [f"fpt:{s}" for s in range(self.POOL)]

    def build(self, key):
        s = int(key.split(":")[1])
        n, m, emin, emax = FPT_SHAPE
        edges = random_edges(n, m, emin, emax, s)
        inst = f"fpt{s}.hce"
        return Item(
            key,
            {inst: hce_text(n, edges)},
            [Step("mincore", ["mincore", inst, "--max-a", str(FPT_MAX_A), "--jobs", "1"])],
            facts=(n, edges),
        )

    def classify(self, item, outs):
        rc, out = outs["mincore"]
        return f"a{_field(out, 'a ')}" if rc == 0 else "none"

    def check(self, item, outs, hc):
        rc, out = outs["mincore"]
        if rc == 1:
            ok = out == f"no core of size n-m+a possible for any a <= {FPT_MAX_A}\n"
            return {} if ok else {"mincore": "bad not-found message"}
        n, edges = item.facts
        graph = hc.Hypergraph(n, edges)
        a = int(_field(out, "a "))
        core = _vertex_line(_lines(out)[1])
        if len(core) != n - len(edges) + a:
            return {"mincore": "core size is not n - m + a"}
        if not hc.is_core(graph, core):
            return {"mincore": "printed core is not a core"}
        if int(_field(out, "radius ")) != hc.propagate(graph, core).radius:
            return {"mincore": "printed radius differs from propagate's"}
        return {}


class Certify(Workload):
    """Exhaustive cross-certification on small instances: the oracle against
    mincore on random instances, and the oracle on compiled set cover,
    MinRep and 3-SAT sources."""

    name = "certify"
    POOL = 200
    PICKS = {"random": 40, "setcover3": 20, "minrep": 20, "3sat": 20}

    def pool(self):
        return [f"{kind}:{s}" for kind in sorted(self.PICKS) for s in range(self.POOL)]

    def build(self, key):
        kind, s = key.split(":")
        builders = {
            "random": self._build_random,
            "setcover3": self._build_setcover3,
            "minrep": self._build_minrep,
            "3sat": self._build_sat,
        }
        return builders[kind](key, int(s))

    def _build_random(self, key, s):
        rng = random.Random(f"certify-random:{s}")
        n = rng.randint(9, 12)
        m = rng.randint(0, n)
        inst = f"rand{s}.hce"
        return Item(
            key,
            {inst: hce_text(n, random_edges(n, m, 2, 4, 9500 + s))},
            [
                Step("oracle", ["oracle", inst, "--budget", "12", "--min-radius"]),
                Step("mincore", ["mincore", inst, "--max-a", str(n), "--jobs", "1"]),
            ],
            facts=(n, m),
        )

    def _compiled(self, key, src_name, src_text, problem, extra, oracle_flags, facts):
        out = src_name + ".hce"
        return Item(
            key,
            {src_name: src_text},
            [
                Step("reduce", ["reduce", problem, src_name, *extra, "-o", out]),
                Step(
                    "oracle",
                    ["oracle", out, "--budget", str(ORACLE_VERTEX_BUDGET[problem]),
                     *oracle_flags],
                ),
            ],
            facts=facts,
        )

    def _build_setcover3(self, key, s):
        # Shape of the acceptance suite's random set cover family.
        rng = random.Random(f"certify-setcover:{s}")
        u = rng.choice((3, 4))
        k = rng.randint(2, 4)
        sets = [set(rng.sample(range(u), rng.randint(1, u))) for _ in range(k)]
        sets[0] |= set(range(u)) - set().union(*sets)
        text = f"p sc {u} {k}\n" + "".join(f"s {_numbered(x)}\n" for x in sets)
        return self._compiled(key, f"sc{s}.txt", text, "setcover3", [], [], (u, sets))

    def _build_minrep(self, key, s):
        # Shape of the acceptance suite's MinRep family.
        rng = random.Random(f"certify-minrep:{s}")
        while True:
            q_a, m_a = rng.choice(((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)))
            q_b, m_b = rng.choice(((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)))
            if q_a * m_a + q_b * m_b <= 6:
                break
        pairs = [(a, b) for a in range(q_a * m_a) for b in range(q_b * m_b)]
        edges = sorted(rng.sample(pairs, rng.randint(1, min(5, len(pairs)))))
        text = f"p minrep {q_a} {m_a} {q_b} {m_b}\n" + "".join(
            f"e {a + 1} {b + 1}\n" for a, b in edges
        )
        return self._compiled(
            key, f"mr{s}.txt", text, "minrep", [], [], (q_a, m_a, q_b, m_b, edges)
        )

    def _build_sat(self, key, s):
        # Shape of the acceptance suite's 3-SAT formulas (criterion 10).
        rng = random.Random(f"certify-3sat:{s}")
        nclauses = rng.choice((2, 2, 3))
        nvars = rng.randint(3, 4)
        clauses = []
        for _ in range(nclauses):
            vs = rng.sample(range(1, nvars + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        text = f"p cnf {nvars} {nclauses}\n" + "".join(
            " ".join(map(str, c)) + " 0\n" for c in clauses
        )
        return self._compiled(
            key,
            f"cnf{s}.txt",
            text,
            "3sat",
            ["-k", str(SAT_K)],
            ["--min-radius"],
            (nvars, clauses),
        )

    def classify(self, item, outs):
        """``w<q>``: the oracle's subsets (plus mincore's deletion attempts on
        random items) number about ``2 ** (q / 4)``, so items of one class
        cost about the same."""
        rc, out = outs["oracle"]
        if rc != 0:
            return "over-budget"
        size = int(_field(out, "size "))
        if item.key.startswith("random:"):
            n, m = item.facts
            a = int(_field(outs["mincore"][1], "a "))
            attempts = sum(comb(m, j) for j in range(a + 1))
        else:
            n = int(_field(outs["reduce"][1], "n "))
            attempts = 0
        visited = sum(comb(n, j) for j in range(size + 1))
        if any("--min-radius" in step.argv for step in item.steps):
            visited += comb(n, size)  # the radius pass over every minimum core
        if visited > ORACLE_SUBSET_GATE:
            return "over-budget"
        return f"w{round(4 * log2(visited + attempts))}"

    def check(self, item, outs, hc):
        kind = item.key.split(":")[0]
        rc, out = outs["oracle"]
        if rc != 0:
            return {"oracle": f"exit {rc}"}
        size = int(_field(out, "size "))
        if kind == "random":
            rc2, out2 = outs["mincore"]
            if rc2 != 0:
                return {"mincore": f"exit {rc2}"}
            a = int(_field(out2, "a "))
            found = _vertex_line(_lines(out2)[1])
            best = int(_field(out, "min-radius "))
            radius = int(_field(out2, "radius "))
            if len(found) != size:
                return {"mincore": "core size differs from the oracle's"}
            # mincore_fpt is exact at a = 0 and within one round above.
            if not best <= radius <= best + (a > 0):
                return {"mincore": "radius outside the oracle's band"}
            return {}
        if kind == "setcover3":
            u, sets = item.facts
            inst = hc.SetCoverInstance(u, tuple(frozenset(x) for x in sets))
            want = hc.oracle_setcover(inst)[0] + 1
        elif kind == "minrep":
            *shape, edges = item.facts
            want = hc.oracle_minrep(hc.MinrepInstance(*shape, tuple(edges)))[0]
        else:
            nvars, clauses = item.facts
            want = len(clauses)
            sat = hc.oracle_sat(hc.CnfFormula(nvars, tuple(clauses)))[0]
            if (int(_field(out, "min-radius ")) <= SAT_K) != sat:
                return {"oracle": "radius <= k disagrees with satisfiability"}
        return {} if size == want else {"oracle": f"optimum {size}, source says {want}"}


class BoundsSparse(Workload):
    """``bounds --core-size 2`` on peelable instances with n in [150, 300];
    one in ten is two disjoint copies (disconnected, so the diameter exits
    early with inf)."""

    name = "bounds_sparse"
    SINGLE = range(150, 301)
    DOUBLE = range(75, 151)
    VARIANTS = 4
    PICK_SINGLE = 90
    PICK_DOUBLE = 10

    def pool(self):
        return [
            f"{kind}:{n}:{j}"
            for kind, sizes in (("one", self.SINGLE), ("two", self.DOUBLE))
            for n in sizes
            for j in range(self.VARIANTS)
        ]

    def build(self, key):
        kind, n, j = key.split(":")
        n, j = int(n), int(j)
        edges = peelable_edges(n, j)
        total = n
        if kind == "two":
            edges = edges + [[v + n for v in e] for e in edges]
            total = 2 * n
        inst = f"bounds-{kind}-{n}-{j}.hce"
        return Item(
            key,
            {inst: hce_text(total, edges)},
            [Step("bounds", ["bounds", inst, "--core-size", str(BOUNDS_CORE_SIZE)])],
            facts=kind == "one",  # connected
        )

    def select(self, seed, expected):
        # Sizes are spread evenly over their range and only the variant is
        # drawn, so the quadratic diameter cost of a run is nearly fixed.
        rng = random.Random(f"{self.name}:{seed}")
        keys = []
        for kind, sizes, pick in (
            ("one", self.SINGLE, self.PICK_SINGLE),
            ("two", self.DOUBLE, self.PICK_DOUBLE),
        ):
            for i in range(pick):
                n = sizes[(len(sizes) - 1) * i // (pick - 1)]
                keys.append(f"{kind}:{n}:{rng.randrange(self.VARIANTS)}")
        rng.shuffle(keys)
        return keys

    def check(self, item, outs, hc):
        rc, out = outs["bounds"]
        dia = _field(out, "diameter: ")
        if rc != 0 or dia is None:
            return {"bounds": "no report"}
        if (dia != "inf") != item.facts:
            return {"bounds": "diameter disagrees with connectivity"}
        want = "inf" if dia == "inf" else str(int(dia) // (2 * BOUNDS_CORE_SIZE))
        if _field(out, "diameter_bound: ") != want:
            return {"bounds": "diameter bound is not floor(diam / 2s)"}
        return {}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PeelPipeline(), FptSearch(), Certify(), BoundsSparse())
}
