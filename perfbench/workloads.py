"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each workload turns a seed into a fixed list of items, writes them as the
input files a user would have, and reads them back.  One op runs the
program on one item.  Each output is then checked against the expected
value of that item, which ``expected`` computes once per run with code of
the benchmark's own (an independent interlace-polynomial recursion for
the corpus workloads, the recorded suite digests for the sweep), and by
oracles that share nothing with the pivot recursion.

Why these three workloads:

* ``engine-gnp``: dense G(n, 1/2) graphs give the pivot recursion its
  widest top, reached exactly as a user's ``interlacepoly poly`` call
  reaches it.  A group of order-20 graphs makes the engine's memo (about
  19k entries, 4-5 MiB each) show in the peak resident memory.
* ``sweep-order7``: the exhaustive numpy table path (coefficient tables,
  structure tables, mask kernels and per-mask graph objects).
* ``circuits``: transition-system enumeration in ``euler``, which is near
  zero in the other two.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# Corpus shapes as (size, count) groups: G(n, 1/2) orders, word symbols.
# A full corpus round takes 1-3 s (the sweep excepted), so a run times
# every op many times, which the best-of-rounds timing in run.py needs on
# a host whose speed drifts; most sizes are smaller than the engines'
# reach for that reason.  The main groups are equal and hold over 100 ops,
# so that p50 and p90 fall inside a group and ten ops lie beyond p90; the
# four G(20, 1/2) graphs lie beyond it too and set the peak memory.
# "tiny" is for the self-test only.
SHAPES = {
    "engine-gnp": {
        "full": {"groups": ((14, 34), (15, 34), (16, 34), (20, 4))},
        "tiny": {"groups": ((7, 4), (8, 4), (9, 4))},
    },
    "circuits": {
        "full": {"groups": ((8, 34), (9, 34), (10, 34))},
        "tiny": {"groups": ((5, 4), (6, 4), (7, 4))},
    },
    "sweep-order7": {
        "full": {"extremal": 7, "conjectures": 7, "identities": 6},
        "tiny": {"extremal": 4, "conjectures": 4, "identities": 3},
    },
}


def import_program():
    """Import interlacepoly from the checkout's ``src`` (and numpy)."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of set-up: the tables need it)
    import interlacepoly

    # never measure a copy installed elsewhere in place of the checkout's
    if Path(interlacepoly.__file__).resolve().parent != src / "interlacepoly":
        raise ImportError(f"interlacepoly was not imported from {src}")
    return interlacepoly


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# -- independent oracles (no program code) -------------------------------------


def evaluate(coeffs, x0: int) -> int:
    return sum(c * x0**k for k, c in enumerate(coeffs))


def lowest_degree(coeffs) -> int:
    return next(k for k, c in enumerate(coeffs) if c)


def component_count(n: int, edges) -> int:
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    return sum(1 for v in range(n) if find(v) == v)


def shifted_times_x(coeffs) -> list[int]:
    """Coefficients of x * q(1 + x), by binomial expansion."""
    out = [0] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            out[j + 1] += c * comb(k, j)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def interlace_oracle(n: int, edges) -> list[int]:
    """Coefficients of q(G), lowest first, computed apart from the program.

    Bitmask rows; q is multiplicative over components, q(K1) = x, and for
    an edge ab, q(G) = q(G - a) + q(G^ab - b), where G^ab toggles the
    edges between the three classes N(a) - N(b), N(b) - N(a), N(a) & N(b)
    (a and b themselves excluded).
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo: dict = {}

    def q(alive: int, rows: list[int]) -> tuple[int, ...]:
        if not alive:
            return (1,)
        key = (alive, tuple(rows[v] for v in _bits(alive)))
        if key in memo:
            return memo[key]
        first = alive & -alive
        reach = frontier = first
        while frontier:
            v = frontier.bit_length() - 1
            frontier &= ~(1 << v)
            new = rows[v] & ~reach
            reach |= new
            frontier |= new
        a = first.bit_length() - 1
        if reach != alive:
            out = _mul(q(reach, rows), q(alive & ~reach, rows))
        elif not rows[a]:
            out = (0, 1)
        else:
            b = (rows[a] & -rows[a]).bit_length() - 1
            na, nb, ab = rows[a], rows[b], (1 << a) | (1 << b)
            only_a, only_b, both = na & ~nb & ~ab, nb & ~na & ~ab, na & nb
            pivoted = list(rows)
            for cls, other in ((only_a, only_b | both), (only_b, only_a | both),
                               (both, only_a | only_b)):
                for v in _bits(cls):
                    pivoted[v] ^= other
            out = _add(q(alive & ~(1 << a), _without(rows, a)),
                       q(alive & ~(1 << b), _without(pivoted, b)))
        memo[key] = out
        return out

    return list(q((1 << n) - 1, adj))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _without(rows: list[int], v: int) -> list[int]:
    keep = ~(1 << v)
    return [r & keep for r in rows]


def _add(p, r) -> tuple[int, ...]:
    if len(p) < len(r):
        p, r = r, p
    return tuple(c + (r[i] if i < len(r) else 0) for i, c in enumerate(p))


def _mul(p, r) -> tuple[int, ...]:
    out = [0] * (len(p) + len(r) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(r):
            out[i + j] += c * d
    return tuple(out)


def word_interlace_edges(word) -> list[tuple[int, int]]:
    """Interlaced symbol pairs of a double occurrence word: a and b
    interlace when exactly one occurrence of b lies between those of a."""
    spans: dict[int, list[int]] = {}
    for pos, s in enumerate(word):
        spans.setdefault(s, []).append(pos)
    return [
        (a, b) for a, b in combinations(sorted(spans), 2)
        if (spans[a][0] < spans[b][0] < spans[a][1])
        != (spans[a][0] < spans[b][1] < spans[a][1])
    ]


def graph6(n: int, edges) -> str:
    """graph6 text of a graph of order n < 63."""
    adjacent = set(edges)
    bits = [
        1 if (i, j) in adjacent else 0 for j in range(1, n) for i in range(j)
    ]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def random_word(rng: random.Random, n: int) -> list[int]:
    symbols = list(range(n)) * 2
    rng.shuffle(symbols)
    return symbols


# -- workloads -------------------------------------------------------------------


class Workload:
    """One workload at one scale.

    ``prepare`` writes the seeded inputs under ``workdir`` and returns the
    items; ``expected`` gives each item's expected value (JSON-ready);
    ``run`` is the timed op; ``check`` returns None or a failure message;
    ``canonical`` gives the bytes of an output for the round digest.
    """

    name = ""

    def __init__(self, scale: str):
        self.scale = scale
        self.shape = SHAPES[self.name][scale]

    def sizes(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        for size, count in self.shape["groups"]:
            for _ in range(count):
                yield rng, size


class EngineGnp(Workload):
    """``interlacepoly poly <file> --format graph6 --json`` on G(n, 1/2)."""

    name = "engine-gnp"

    def prepare(self, seed: int, workdir: Path):
        import_program()
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for i, (rng, n) in enumerate(self.sizes(seed)):
            edges = [e for e in combinations(range(n), 2) if rng.getrandbits(1)]
            path = workdir / f"g{i:03d}.g6"
            path.write_text(graph6(n, edges) + "\n", encoding="ascii")
            items.append((str(path), n, edges))
        return items

    def expected(self, items):
        return [interlace_oracle(n, edges) for _, n, edges in items]

    def run(self, item):
        from interlacepoly import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["poly", item[0], "--format", "graph6", "--json"])
        return code, buf.getvalue()

    def check(self, item, out, want):
        _, n, edges = item
        code, text = out
        if code != 0:
            return f"exit code {code}"
        coeffs = [int(c) for c in json.loads(text)["coeffs"]]
        if min(coeffs) < 0:
            return "negative coefficient"
        if evaluate(coeffs, 2) != 2**n:
            return "q(G;2) != 2^n"
        if lowest_degree(coeffs) != component_count(n, edges):
            return "lowest degree != component count"
        if coeffs != want:
            return "q(G) differs from the independent recursion"
        return None

    def canonical(self, item, out):
        return out[1].encode()


class Circuits(Workload):
    """r(D;x), BEST, anti-circuits and q(H) of seeded random double
    occurrence words, written one per line of words.txt."""

    name = "circuits"

    def prepare(self, seed: int, workdir: Path):
        import_program()
        from interlacepoly import DoubleOccurrenceWord

        workdir.mkdir(parents=True, exist_ok=True)
        raw = [random_word(rng, n) for rng, n in self.sizes(seed)]
        path = workdir / "words.txt"
        path.write_text("".join(" ".join(map(str, w)) + "\n" for w in raw), "ascii")
        lines = path.read_text("ascii").splitlines()
        return [(DoubleOccurrenceWord.parse(line), w) for line, w in zip(lines, raw)]

    def expected(self, items):
        """q(H) of each word's interlace graph."""
        return [
            interlace_oracle(len(w) // 2, word_interlace_edges(w)) for _, w in items
        ]

    def run(self, item):
        from interlacepoly import (anti_circuit_count, circuit_partition_polynomial,
                                   digraph_from_word, euler_circuit_count_best,
                                   interlace_graph, interlace_polynomial)

        w = item[0]
        d = digraph_from_word(w)
        r = circuit_partition_polynomial(d)
        return (
            r.coeffs,
            euler_circuit_count_best(d),
            anti_circuit_count(d),
            interlace_polynomial(interlace_graph(w)).coeffs,
        )

    def check(self, item, out, want):
        n = len(item[1]) // 2
        r, best, anti, q = out
        if list(q) != want:
            return "q(H) differs from the independent recursion"
        if list(r) != shifted_times_x(want):
            return "x q(H;1+x) != r(D;x)"
        if r[1] != best:
            return "r_1 != BEST count"
        if evaluate(r, 1) != 2**n:
            return "r(D;1) != 2^n"
        if evaluate(r, -2) != (-1) ** (n + anti) * 2**anti:
            return "r(D;-2) != (-1)^(n+a) 2^a"
        return None

    def canonical(self, item, out):
        return repr(out).encode()


class SweepOrder7(Workload):
    """The exhaustive extremal, conjecture and identity suites; one op is
    one suite call, checked against the recorded report digest."""

    name = "sweep-order7"

    def prepare(self, seed: int, workdir: Path):
        import_program()
        return ["extremal", "conjectures", "identities"]

    def expected(self, items):
        recorded = load_reference()["sweep"][self.scale]
        return [recorded[item] for item in items]

    def run(self, item):
        from interlacepoly import suites

        n = self.shape[item]
        if item == "extremal":
            return suites.run_extremal_suite(n)
        if item == "conjectures":
            return suites.run_conjecture_suite(n, random_samples=0)
        return suites.run_identity_suite(n, word_samples=0)

    def check(self, item, out, want):
        if out.checked != want["checked"]:
            return f"checked {out.checked} != {want['checked']}"
        if report_digest(out) != want["sha256"]:
            return "report digest differs from the recorded one"
        return None

    def canonical(self, item, out):
        return report_digest(out).encode()


def report_digest(report) -> str:
    """sha256 of a suite report's JSON with ``elapsed_ms`` left out."""
    data = report.to_json_dict()
    data.pop("elapsed_ms")
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (EngineGnp, SweepOrder7, Circuits)}


def prepare_only(name: str, scale: str, seed: str, workdir: str) -> None:
    """Set-up alone, as timed in a fresh interpreter for ``setup_s``."""
    WORKLOADS[name](scale).prepare(int(seed), Path(workdir))


def write_expected(name: str, scale: str, seed: str, workdir: str, target: str) -> None:
    """Write the inputs under ``workdir`` and every op's expected value to
    ``target`` (JSON)."""
    workload = WORKLOADS[name](scale)
    items = workload.prepare(int(seed), Path(workdir))
    Path(target).write_text(json.dumps(workload.expected(items)), encoding="utf-8")
