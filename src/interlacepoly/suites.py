"""Verification suites: exhaustive identity, orbit, extremal, conjecture.

Each suite sweeps a stated instance universe (all labeled graphs of order
<= n_max, all double occurrence words of <= k symbols, seeded random
corpora), re-checks proved identities and bounds instance by instance,
and returns a VerificationReport.  Proved statements must come back with
zero violations; the conjecture suite distinguishes a violation (a
counterexample, which would be a headline result) from a pass.

Everything is deterministic given (n_max, samples, seed); elapsed_ms is
the one wall-clock field in a report.

Suite internals lean on the vectorized coefficient tables from
`enumeration` for graph sweeps; the orbit sweep works on word tuples and
keys each digraph by the bytes of its sorted arcs.  Both are
cross-checked against the object-level operations in the unit tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import numpy as np

from . import enumeration as en
from .euler import (
    DoubleOccurrenceWord,
    _best_cofactor,
    _canonical_rotation,
    _circuit_orbit,
    _interlaced_pairs,
    _martin_from_circuit_partition,
    _occurrences,
    _transpose_slice,
    anti_circuit_count,
    canonical_word_tuples,
    circuit_partition_polynomial,
    digraph_from_word,
    euler_circuit_count_best,
    euler_circuits_brute,
    interlace_graph,
    resolve_vertex,
    transpose,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    TooLargeError,
    component_count,
    delete_vertex,
    edgeless_graph,
    independence_number,
    matching_number,
    substitute,
    to_graph6,
)
from .interlace import (
    clique_substitution_polynomial,
    interlace_polynomial,
    rotate,
    solid_graph,
    star_polynomial,
    thick_graph,
    vertex_duplication_polynomial,
    vertex_multiplication_polynomial,
)
from .polynomials import IntPolynomial, is_log_concave, is_unimodal

MAX_VIOLATIONS_PER_CHECK = 20
# 7 symbols have about 48.6 M canonical words: held as 14-tuples by the orbit
# suite's first pass, they alone would need over 8 GB
ORBIT_MAX_SYMBOLS = 6


@dataclass
class VerificationReport:
    """Outcome of one suite run.

    ``violations`` is empty exactly when the suite passed.  Each entry
    carries the instance encoding under the key "graph6" (a graph6 string
    for graph instances, the word or digraph text for word instances) and
    a human-readable detail.  Every check passes through one of two paths:
    ``check`` counts one instance and records it if it failed, so each
    failure is kept; ``record_mask_failures`` counts a mask array and caps
    its stored failures, the cap entry stating how many more there were.
    """

    suite: str
    n_max: int
    checked: int = 0
    violations: list[dict] = field(default_factory=list)
    seed: int | None = None
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return asdict(self)

    # -- recording helpers ------------------------------------------------

    def check(
        self, ok: bool, instance: Graph | tuple[int, ...] | str, detail: str
    ) -> None:
        """Count one instance; record it if not ``ok``.  Only a failure is
        written out: a Graph as graph6, a word tuple as its symbols
        numbered from 1, a string as given."""
        self.checked += 1
        if not ok:
            if isinstance(instance, Graph):
                instance = to_graph6(instance)
            elif isinstance(instance, tuple):
                instance = " ".join(str(s + 1) for s in instance)
            self.record(instance, detail)

    def record(self, instance: str, detail: str) -> None:
        self.violations.append({"graph6": instance, "detail": detail})

    def record_mask_failures(
        self, n: int, masks: np.ndarray, ok: np.ndarray, detail: str
    ) -> None:
        """Record mask-encoded graph instances where ``ok`` is False."""
        self.checked += len(masks)
        if ok.all():
            return
        bad = np.flatnonzero(~ok)
        for idx in bad[:MAX_VIOLATIONS_PER_CHECK]:
            self.record(to_graph6(en.graph_of_mask(n, int(masks[idx]))), detail)
        if len(bad) > MAX_VIOLATIONS_PER_CHECK:
            self.record("...", f"{len(bad) - MAX_VIOLATIONS_PER_CHECK} more: {detail}")


def _check_count(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be at least 0, got {value}")


def _finish(report: VerificationReport, t0: float) -> VerificationReport:
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


# ===========================================================================
# identity suite
# ===========================================================================


def run_identity_suite(
    n_max: int = 6, word_samples: int = 500, seed: int = 20
) -> VerificationReport:
    """Exhaustively check the proved pivot/interlace/circuit identities.

    Graph-side, over every labeled graph of order <= n_max: the pivot
    reduction q(G) = q(G-a) + q(G^{ab}-b) for every oriented edge, pivot
    invariance of q, multiplicativity over disjoint splits, q(2) = 2^n,
    lowest degree = component count, degree bounds (<= n with equality
    only for edgeless, >= independence number, monotone under deletion),
    q(-1) = +/-2^k, pivot involution/symmetry/connectivity/neighborhood
    preservation, and the triple-pivot identities
    G^{(ab)(ac)(ab)} = G_{bc} and G^{(ab)(ac)} = (G^{ac})_{bc}
    (the former is the brute-force-confirmed superscript sequence).

    Tree-side: deg q = order - matching number over all trees of order
    <= 9 (one representative per isomorphism class; q is isomorphism
    invariant).

    Word-side, over exhaustive words of <= 4 symbols plus ``word_samples``
    seeded random words of 3..8 symbols: the bridge x q(H;1+x) = r(D;x),
    q(H) = m(D), lowest degree = component count and degree >=
    independence number of H (found without the engine), Euler counts by
    brute force / BEST / q(H;1), the anti-circuit evaluation r(D;-2), the
    transition-system count r(D;1) = 2^n, the split of r over the two
    resolutions of a vertex, and digraph preservation under transposition.
    """
    _check_count("word_samples", word_samples)
    t0 = time.monotonic()
    report = VerificationReport("identities", n_max, seed=seed)

    en._level(n_max)  # an order out of range fails before the sweep
    for n in range(n_max + 1):
        _identity_graph_checks(report, n)
    _identity_tree_checks(report)
    _identity_calculus_checks(report, seed)
    _identity_word_checks(report, word_samples, seed)
    return _finish(report, t0)


def _identity_graph_checks(report: VerificationReport, n: int) -> None:
    W = en.words(n)
    rows, index = en.distinct(n)
    masks = np.arange(len(W), dtype=np.uint32)
    comp = en.component_count_table(n)

    # q(2) = 2^n and q(-1) = +/- 2^k
    report.record_mask_failures(
        n, masks, en.evaluate(n, 2) == 2**n, "q(2) != 2^order"
    )
    at_minus_1 = np.abs(en.evaluate(n, -1))
    pow2 = (at_minus_1 != 0) & ((at_minus_1 & (at_minus_1 - 1)) == 0)
    report.record_mask_failures(n, masks, pow2, "q(-1) not a signed power of two")

    # coefficients nonnegative; constant term zero iff order >= 1
    report.record_mask_failures(
        n, masks, (rows >= 0).all(axis=1)[index], "negative coefficient"
    )
    const_ok = rows[index, 0] == (0 if n >= 1 else 1)
    report.record_mask_failures(n, masks, const_ok, "constant term wrong")

    # lowest degree = component count; degree bounds
    deg = en.degrees(n)
    report.record_mask_failures(
        n, masks, en.lowest_degrees(n) == comp,
        "lowest nonzero degree != component count",
    )
    report.record_mask_failures(
        n, masks, (deg < n) | (masks == 0), "degree n on a non-edgeless graph"
    )
    report.record_mask_failures(
        n, masks, deg >= en.independence_number_table(n),
        "degree below independence number",
    )
    if n >= 1:
        prev_deg = en.degrees(n - 1)
        for v in range(n):
            sub = prev_deg[en.delete_vertex_masks(masks, v, n)]
            report.record_mask_failures(
                n, masks, deg >= sub, f"degree dropped below q(G-{v})"
            )

    if n >= 2:
        prev = en.words(n - 1)
        for a in range(n):
            P = {b: _pivot_table(n, a, b) for b in range(n) if b != a}
            for b, Pb in P.items():
                sel = masks[(masks >> en.pair_index(a, b) & 1) == 1]
                piv = Pb[sel]
                # pivot reduction, every oriented edge (words of order n-1
                # have no degree-n byte, so the sum checks that one too)
                left = prev[en.delete_vertex_masks(sel, a, n)]
                right = prev[en.delete_vertex_masks(piv, b, n)]
                report.record_mask_failures(
                    n, sel, W[sel] == left + right,
                    f"q != q(G-{a}) + q(G^({a}{b})-{b})",
                )
                if a < b:
                    # pivot invariance of q, involution, symmetry
                    report.record_mask_failures(
                        n, sel, W[piv] == W[sel], "q(G^ab) != q(G)"
                    )
                    report.record_mask_failures(
                        n, sel, Pb[piv] == sel, "pivot is not an involution"
                    )
                    report.record_mask_failures(
                        n, sel, en.pivot_masks(sel, b, a, n) == piv,
                        "pivot not symmetric in a,b",
                    )
                    # connectivity preserved; neighborhoods of a,b fixed
                    report.record_mask_failures(
                        n, sel, (comp[sel] != 1) | (comp[piv] == 1),
                        "pivot disconnected a connected graph",
                    )
                    frozen = en.incident_bits(n, a) | en.incident_bits(n, b)
                    report.record_mask_failures(
                        n, sel, ((sel ^ piv) & frozen) == 0,
                        "pivot changed the neighborhood of a or b",
                    )
                # triple-pivot identities with ab, ac edges, as gathers: a
                # pivot about ab or ac keeps N(a), so ab and ac stay edges
                for c, Pc in P.items():
                    if c == b:
                        continue
                    sel_c = sel[(sel >> en.pair_index(a, c) & 1) == 1]
                    after_two = Pc[Pb[sel_c]]
                    report.record_mask_failures(
                        n, sel_c, Pb[after_two] == en.label_swap_masks(sel_c, b, c, n),
                        f"pivot triple ({a}{b})({a}{c})({a}{b}) != swap {b}{c}",
                    )
                    report.record_mask_failures(
                        n, sel_c, after_two == en.label_swap_masks(Pc[sel_c], b, c, n),
                        f"pivot pair ({a}{b})({a}{c}) != swapped ({a}{c})",
                    )
            del P  # free this vertex's tables before the next one's are built

    # multiplicativity over explicit disjoint splits (small side second):
    # one word product per graph, exact since q(G1) q(G2) at 2 is 2^n
    for n2 in range(1, n // 2 + 1):
        n1 = n - n2
        big = en.words(n1)
        big_masks = np.arange(len(big), dtype=np.int64)
        small = en.words(n2)
        small_masks = np.arange(len(small), dtype=np.int64)
        for mask2, shifted in enumerate(en.relabel_masks(small_masks, range(n1, n), n2)):
            union = big_masks | shifted
            report.record_mask_failures(
                n, union, W[union] == big * small[mask2],
                f"q(G1 u G2) != q(G1) q(G2) [split {n1}+{n2}]",
            )


def _pivot_table(n: int, a: int, b: int) -> np.ndarray:
    """G^{ab} for every order-n mask holding the edge ab, and 0 at every
    other mask: one uint32 array over all 2^C(n,2) masks."""
    masks = np.arange(1 << en.pair_count(n), dtype=np.uint32)
    sel = masks[(masks >> en.pair_index(a, b) & 1) == 1]
    table = np.zeros_like(masks)
    table[sel] = en.pivot_masks(sel, a, b, n)
    return table


def _identity_tree_checks(report: VerificationReport) -> None:
    cache: dict = {}
    for n in range(1, 10):
        for tree in en.free_trees(n):
            ok = interlace_polynomial(tree, cache).degree == n - matching_number(tree)
            report.check(ok, tree, "tree degree != order - matching number")


def _identity_calculus_checks(report: VerificationReport, seed: int) -> None:
    """Rotation inequality and the substitution calculus, randomized."""
    rng = random.Random(seed)
    cache: dict = {}

    def rand_graph(n):
        return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])

    for _ in range(1000):
        g = rand_graph(rng.randrange(2, 8))
        u = rng.randrange(g.n)
        v = (u + 1 + rng.randrange(g.n - 1)) % g.n
        qg = interlace_polynomial(g, cache)
        qh = interlace_polynomial(rotate(g, u, v), cache)
        for x0 in (1, 2, 3):
            ok = qg.evaluate(x0) <= qh.evaluate(x0)
            report.check(ok, g, f"rotation inequality fails at x={x0}")

    for _ in range(120):
        t = rand_graph(rng.randrange(1, 5))
        sizes = [rng.randrange(1, 4) for _ in range(t.n)]
        solid = solid_graph(t, sizes)
        ok = interlace_polynomial(solid, cache) == clique_substitution_polynomial(
            interlace_polynomial(t, cache), solid.n - t.n
        )
        report.check(ok, t, "clique substitution scaling fails")

        g = rand_graph(rng.randrange(1, 7))
        a = rng.randrange(g.n)
        dup = substitute(
            g, [edgeless_graph(2 if v == a else 1) for v in range(g.n)]
        )
        ga = delete_vertex(g, a)
        ok = interlace_polynomial(dup, cache) == vertex_duplication_polynomial(
            interlace_polynomial(g, cache), interlace_polynomial(ga, cache)
        )
        report.check(ok, g, "vertex duplication formula fails")

        h = rand_graph(rng.randrange(1, 5))
        ks = [rng.randrange(1, 4) for _ in range(h.n)]
        ok = vertex_multiplication_polynomial(h, ks, cache) == interlace_polynomial(
            thick_graph(h, ks), cache
        )
        report.check(ok, h, "vertex multiplication expansion fails")

    # two different order-9 trees sharing one polynomial
    t1 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7), (4, 8)])
    t2 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (4, 8)])
    expected = IntPolynomial((0, 2, 9, 17, 13, 4))
    q1, q2 = (interlace_polynomial(t, cache) for t in (t1, t2))
    report.check(q1 == q2 == expected, t1, "order-9 tree pair regression value")


def _word_corpus(word_samples: int, seed: int) -> list[DoubleOccurrenceWord]:
    words = [
        DoubleOccurrenceWord(t)
        for n in range(1, 5)
        for t in canonical_word_tuples(n)
    ]
    rng = random.Random(seed)
    for _ in range(word_samples):
        n = rng.randint(3, 8)
        syms = list(range(n)) * 2
        rng.shuffle(syms)
        words.append(DoubleOccurrenceWord(syms))
    return words


def _identity_word_checks(
    report: VerificationReport, word_samples: int, seed: int
) -> None:
    cache: dict = {}
    for w in _word_corpus(word_samples, seed):
        word = w.symbols  # recorded numbered from 1, as in the orbit suite
        h = interlace_graph(w)
        d = digraph_from_word(w)
        q = interlace_polynomial(h, cache)
        r = circuit_partition_polynomial(d)
        report.check(q.shift_argument(1).mul_x() == r, word, "x q(H;1+x) != r(D;x)")
        report.check(_martin_from_circuit_partition(r) == q, word, "q(H) != m(D)")
        # the engine's q(H) against invariants of H found without it
        ok = q.lowest_degree() == component_count(h)
        report.check(ok, word, "lowest degree of q(H) != component count of H")
        ok = q.degree >= independence_number(h)
        report.check(ok, word, "deg q(H) below independence number of H")
        brute = len(euler_circuits_brute(d))
        ok = brute == euler_circuit_count_best(d) == q.evaluate(1) == r.coefficient(1)
        report.check(ok, word, "Euler circuit counts disagree")
        report.check(r.evaluate(1) == 2**w.n, word, "sum of r_k != 2^order")
        a = anti_circuit_count(d)
        ok = r.evaluate(-2) == (-1) ** (w.n + a) * 2**a
        report.check(ok, word, "r(D;-2) != (-1)^(n+a) 2^a")
        # resolving any one vertex splits r into the two resolutions
        r0 = circuit_partition_polynomial(resolve_vertex(d, 0, (0, 1)))
        r1 = circuit_partition_polynomial(resolve_vertex(d, 0, (1, 0)))
        report.check(r0 + r1 == r, word, "r != sum of the two vertex resolutions")
        # transposition preserves the digraph
        for x, y in h.edges():
            ok = digraph_from_word(transpose(w, x, y)) == d
            report.check(ok, word, f"transpose({x},{y}) changed digraph")


# ===========================================================================
# orbit suite (words of <= max_symbols symbols, exhaustively)
# ===========================================================================


def run_orbit_suite(max_symbols: int = 5) -> VerificationReport:
    """Exhaustive word-orbit laws on all words of <= max_symbols symbols.

    For every labeled 2-in/2-out digraph realized by such words (words
    grouped by their digraph): the Euler circuits form a single orbit
    under arc-level transpositions whose size is the BEST-theorem count
    and q(H;1); the words of those circuits are exactly the digraph's
    words; the interlace graphs along every transposition follow the
    pivot-plus-swap commutation rule; and the "partition each other"
    properties hold: digraphs sharing an interlace graph have identical
    interlace-graph sets, and interlace graphs sharing a digraph have
    identical digraph sets.
    """
    _check_count("max_symbols", max_symbols)
    if max_symbols > ORBIT_MAX_SYMBOLS:
        raise TooLargeError(f"orbit laws stop at {ORBIT_MAX_SYMBOLS} symbols")
    t0 = time.monotonic()
    report = VerificationReport("orbits", max_symbols)
    for n in range(1, max_symbols + 1):
        _orbit_checks_for_order(report, n)
    return _finish(report, t0)


def _orbit_checks_for_order(report: VerificationReport, n: int) -> None:
    # per vertex pair ab, the map H -> (H^{ab})_{ab} on edge masks, 0 without ab
    swap_pivot = {
        (a, b): en.label_swap_masks(_pivot_table(n, a, b), a, b, n)
        for a, b in combinations(range(n), 2)
    }
    q1_of_mask = en.evaluate(n, 1)

    # pass 1: group canonical words by digraph
    groups: dict[bytes, list[tuple[int, ...]]] = {}
    for w in canonical_word_tuples(n):
        arcs = sorted((w[i], w[(i + 1) % len(w)]) for i in range(len(w)))
        dkey = bytes(v for arc in arcs for v in arc)
        groups.setdefault(dkey, []).append(w)

    def hmask(pairs) -> int:
        return sum(1 << en.pair_index(a, b) for a, b, *_ in pairs)

    # pass 2, once per digraph: each word's interlaced pairs and H mask;
    # transpositions keep the digraph, H commutes with pivot-plus-swap, and
    # the circuit orbit of the first word is everything
    hset_of_group: dict[bytes, frozenset[int]] = {}
    for dk, words in groups.items():
        pairs_of = {w: _interlaced_pairs(*_occurrences(w)) for w in words}
        h_of = {w: hmask(pairs) for w, pairs in pairs_of.items()}
        for w, h in h_of.items():
            for a, b, i, j, k, l in pairs_of[w]:
                t = _canonical_rotation(_transpose_slice(w, i + 1, j, k + 1, l))
                ht = h_of.get(t)
                report.check(ht is not None, w, "transposition left the digraph")
                if ht is None:
                    ht = hmask(_interlaced_pairs(*_occurrences(t)))
                ok = ht == int(swap_pivot[(a, b)][h])
                report.check(ok, w, f"H(transpose {a},{b}) != swapped pivot")
        hset_of_group[dk] = frozenset(h_of.values())
        rep = words[0]
        best = _best_cofactor(n, zip(rep, rep[1:] + rep[:1]))
        orbit = _circuit_orbit(rep)
        report.check(len(orbit) == best, rep, "circuit orbit size != BEST count")
        report.check(best == int(q1_of_mask[h_of[rep]]), rep, "BEST count != q(H;1)")
        ok = set(map(_canonical_rotation, orbit.values())) == set(words)
        report.check(ok, rep, "circuit orbit words != digraph's words")

    # pass 3: interlace-graph sets and digraph sets partition each other
    groups_of_h: dict[int, set[bytes]] = {}
    for dk, hs in hset_of_group.items():
        for h in hs:
            groups_of_h.setdefault(h, set()).add(dk)
    interned: dict[frozenset[bytes], frozenset[bytes]] = {}
    d_set_of_h = {}  # equal D-sets are one object, so comparing them is `is`
    for h, dks in groups_of_h.items():
        ok = len({hset_of_group[dk] for dk in dks}) == 1
        detail = "digraphs sharing an interlace graph differ in H-sets"
        report.check(ok, f"order-{n} interlace mask {h}", detail)
        frozen = frozenset(dks)
        d_set_of_h[h] = interned.setdefault(frozen, frozen)
    for dk, hs in hset_of_group.items():
        first = d_set_of_h[next(iter(hs))]
        ok = all(d_set_of_h[h] is first for h in hs)
        detail = "interlace graphs sharing a digraph differ in D-sets"
        report.check(ok, groups[dk][0], detail)


# ===========================================================================
# extremal suite
# ===========================================================================


def run_extremal_suite(n_max: int = 7) -> VerificationReport:
    """Check the extremal bounds on q(G;1), degree, and term counts, with
    their equality characterizations, over all labeled graphs of order
    <= n_max.

    Bounds: q(1) >= e(G)+1 (equality: complete tripartite plus isolated
    vertices); q(1) <= F_{m+2} for connected G with m edges (equality:
    paths), with the componentwise product bound for disconnected G and
    q(1) <= 2^m (equality: independent edges plus isolated vertices);
    q(1) >= n for G without isolated vertices (equality: stars, or two
    independent edges at n=4); q(1) <= 2^(n-1) (equality: complete);
    the second-largest value of q(1) is 3·2^(n-3), attained exactly by
    solid three-class path graphs; deg q <= n (equality: edgeless) and
    q(1) >= 1 (equality: edgeless); exactly-two-term polynomials come
    from one solid path of length 2 or 3 plus complete components; and
    (n-1)-term polynomials force 2x + x^2 + ... + x^(n-1) on a star.
    """
    t0 = time.monotonic()
    report = VerificationReport("extremal", n_max)
    en._level(n_max)  # an order out of range fails before the sweep
    fib = [0, 1]
    while len(fib) < en.pair_count(n_max) + 4:
        fib.append(fib[-1] + fib[-2])
    fib = np.array(fib, dtype=np.int64)
    for n in range(n_max + 1):
        _extremal_checks_for_order(report, n, fib)
    return _finish(report, t0)


def _extremal_checks_for_order(report: VerificationReport, n: int, fib: np.ndarray) -> None:
    rows, index = en.distinct(n)
    masks = np.arange(len(index), dtype=np.int64)
    q1 = en.evaluate(n, 1)
    edges = en.edge_count_table(n)
    comp = en.component_count_table(n)
    isolated = en.isolated_count_table(n)
    connected = comp == 1

    # size lower bound and its equality class
    at = f"order {n}"
    report.record_mask_failures(n, masks, q1 >= edges + 1, "q(1) < e(G)+1")
    ok = set(masks[q1 == edges + 1].tolist()) == _tripartite_plus_isolated_masks(n)
    report.check(ok, at, "q(1)=e+1 class != tripartite+isolated class")

    # size upper bounds
    fib_bound = fib[edges + 2]
    report.record_mask_failures(
        n, masks[connected], (q1 <= fib_bound)[connected],
        "connected q(1) > F_{m+2}",
    )
    eq_paths = set(masks[connected & (q1 == fib_bound)].tolist())
    ok = n < 2 or eq_paths == _labeled_path_masks(n)
    report.check(ok, at, "Fibonacci equality class != paths")
    split = masks[comp >= 2]
    report.record_mask_failures(
        n, split, q1[split] <= _componentwise_fibonacci_bounds(split, n, fib),
        "q(1) > product of component Fibonacci bounds",
    )
    report.record_mask_failures(n, masks, q1 <= 2**edges, "q(1) > 2^e")
    ok = set(masks[q1 == 2**edges].tolist()) == _matching_masks(n)
    report.check(ok, at, "q(1)=2^e class != independent-edge class")

    # order bounds
    no_iso = isolated == 0
    report.record_mask_failures(
        n, masks[no_iso], (q1 >= n)[no_iso], "q(1) < n without isolated vertices"
    )
    if n >= 2:
        expected = _star_masks(n)
        if n == 4:
            expected |= {m for m in _matching_masks(4) if m.bit_count() == 2}
        ok = set(masks[no_iso & (q1 == n)].tolist()) == expected
        report.check(ok, at, "q(1)=n class != stars (+2K_2 at n=4)")
    report.record_mask_failures(n, masks, q1 <= 2 ** (n - 1) if n else q1 <= 1,
                                "q(1) > 2^(n-1)")
    if n >= 1:
        ok = set(masks[q1 == 2 ** (n - 1)].tolist()) == {(1 << en.pair_count(n)) - 1}
        report.check(ok, at, "q(1)=2^(n-1) attained off the complete graph")

    # second-maximum value of q(1)
    if n >= 3:
        second = 3 * 2 ** (n - 3)
        top = 2 ** (n - 1)
        report.record_mask_failures(
            n, masks, (q1 == top) | (q1 <= second), "q(1) strictly between the two top values"
        )
        ok = set(masks[q1 == second].tolist()) == _solid_path2_masks(n)
        report.check(ok, at, "second-maximum class != solid P2 graphs")

    # q(1) >= 1 with equality only for edgeless; deg = n only for edgeless
    report.record_mask_failures(n, masks, q1 >= 1, "q(1) < 1")
    ok = set(masks[q1 == 1].tolist()) == {0}
    report.check(ok, at, "q(1)=1 off the edgeless graph")

    # term-count characterizations.  The two-term classification (one
    # solid path of length 2 or 3, all other components complete) is
    # FALSE: the 4-cycle (2x + 3x^2) and the 5-cycle (6x + 5x^2) already
    # have exactly two nonzero terms, and larger counterexample families
    # exist at every order.  The check is kept as stated and reports the
    # counterexamples; the true converse (solid path plus complete
    # components gives two terms) is checked separately below.
    terms = en.nonzero_term_counts(n)
    two_term = masks[terms == 2]
    # kind="table": the sort method calls np.unique, whose lazy import of
    # numpy.ma here pinned freed heap and raised the sweep's peak RSS
    solid = np.array(sorted(_solid_path_plus_complete_masks(n)), dtype=np.int64)
    report.record_mask_failures(
        n, two_term, np.isin(two_term, solid, kind="table"),
        "two-term graph is not solid-path + complete components",
    )
    report.record_mask_failures(
        n, solid, terms[solid] == 2,
        "solid path + complete components without exactly two terms",
    )
    if n >= 3:
        want = np.zeros(n + 1, dtype=np.int64)
        want[1] = 2
        want[2:n] = 1
        sel = terms == n - 1
        report.record_mask_failures(
            n, masks[sel], (rows == want).all(axis=1)[index[sel]],
            "(n-1)-term polynomial is not 2x + x^2 + ... + x^(n-1)",
        )
        stars = np.array(sorted(_star_masks(n)), dtype=np.int64)
        report.record_mask_failures(
            n, masks[sel], np.isin(masks[sel], stars, kind="table"),
            "(n-1)-term graph is not a star",
        )


def _class_sets(n: int, k: int) -> np.ndarray:
    """``sets[c, i]`` is the vertex set (a bitmask over range(n)) of class c
    in the i-th of the k^n assignments of range(n) to classes 0..k-1."""
    digits = np.arange(k**n) // k ** np.arange(n)[:, None] % k
    weights = 1 << np.arange(n)
    return np.stack([weights @ (digits == c) for c in range(k)])


def _tripartite_plus_isolated_masks(n: int) -> set[int]:
    """Each (X, Y) assigns range(n) to X - Y, Y - X, X & Y and the isolated rest."""
    return set(en.tripartite_toggles(n).ravel().tolist())


def _labeled_path_masks(n: int) -> set[int]:
    out = set()
    for perm in permutations(range(n)):
        if perm[0] > perm[-1]:
            continue  # each path once, not once per direction
        mask = 0
        for i in range(n - 1):
            mask |= 1 << en.pair_index(perm[i], perm[i + 1])
        out.add(mask)
    return out


def _set_partitions(vertices: int):
    """Every set partition of the vertex set ``vertices`` (a bitmask), as
    a list of block bitmasks."""
    if not vertices:
        yield []
        return
    first = vertices & -vertices
    for part in _set_partitions(vertices ^ first):
        for i in range(len(part)):
            yield part[:i] + [part[i] | first] + part[i + 1 :]
        yield part + [first]


def _cluster_masks(n: int, vertices: int, max_block: int) -> list[int]:
    """Cluster graphs (disjoint cliques) on the vertex set ``vertices``: the
    OR of K[block] over each set partition whose blocks hold at most
    ``max_block`` vertices."""
    K = en.induced_pair_masks(n).tolist()
    out = []
    for part in _set_partitions(vertices):
        if all(b.bit_count() <= max_block for b in part):
            out.append(reduce(or_, map(K.__getitem__, part), 0))
    return out


def _matching_masks(n: int) -> set[int]:
    return set(_cluster_masks(n, (1 << n) - 1, max_block=2))


def _star_masks(n: int) -> set[int]:
    return {en.incident_bits(n, c) for c in range(n)}


def _solid_paths(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Solid paths on k nonempty cliques C_0, ..., C_{k-1}, joined
    completely to their neighbours along the path: the OR of
    K[C_i | C_{i+1}].  One row per assignment of range(n) to k classes
    plus a rest class; returns the path masks and the rest sets."""
    sets = _class_sets(n, k + 1)
    sets = sets[:, (sets[:k] != 0).all(axis=0)]
    joins = en.induced_pair_masks(n)[sets[: k - 1] | sets[1:k]]
    return np.bitwise_or.reduce(joins, axis=0), sets[k]


def _solid_path2_masks(n: int) -> set[int]:
    """Solid three-class path graphs: cliques A,B,C (all nonempty) with
    complete joins A-B and B-C and nothing between A and C."""
    paths, rest = _solid_paths(n, 3)
    return set(paths[rest == 0].tolist())


def _solid_path_plus_complete_masks(n: int) -> set[int]:
    """All labeled graphs made of one solid path of length 2 or 3 plus
    complete components: the true direction of the two-term statement."""
    out = set()
    for k in (3, 4):  # path template classes (length 2 or 3)
        paths, rest = _solid_paths(n, k)
        for r in set(rest.tolist()):
            clusters = np.array(_cluster_masks(n, r, n), dtype=np.int64)
            out.update((paths[rest == r, None] | clusters).ravel().tolist())
    return out


def _componentwise_fibonacci_bounds(
    masks: np.ndarray, n: int, fib: np.ndarray
) -> np.ndarray:
    """Product of F_{m+2} over the components of each order-n graph in
    masks, m being the component's edge count; each component is counted
    once, at its lowest vertex."""
    comp = en.vertex_component_masks(masks, n)
    edges = np.bitwise_count(masks[:, None] & en.induced_pair_masks(n)[comp])
    factors = np.where(en.lowest_in_component(comp), fib[edges + 2], 1)
    return factors.prod(axis=1)


# ===========================================================================
# conjecture suite
# ===========================================================================


def run_conjecture_suite(
    n_max: int = 7,
    random_samples: int = 5000,
    random_max_order: int = 13,
    seed: int = 20,
) -> VerificationReport:
    """Evidence run for the coefficient-shape conjectures.

    Checks that the coefficients of q(G) and of x q(G; 1+x) are unimodal
    with no internal zeros: exhaustively for all labeled graphs of order
    <= n_max, then on ``random_samples`` seeded random graphs (edge
    probability 1/2) of orders n_max + 1 .. ``random_max_order``.  A violation
    here is a counterexample to an open conjecture, not a bug indicator.
    Also confirms the known non-log-concavity witness 2x + x^2 + x^3 (the
    3-leaf star), so the unimodality evidence is not mistaken for the
    stronger property.
    """
    _check_count("random_samples", random_samples)
    if not n_max < random_max_order <= MAX_ORDER:
        raise ValueError(
            f"random_max_order must be in {n_max + 1}..{MAX_ORDER},"
            f" got {random_max_order}"
        )
    t0 = time.monotonic()
    report = VerificationReport("conjectures", n_max, seed=seed)
    en._level(n_max)  # an order out of range fails before the sweep
    for n in range(n_max + 1):
        # one verdict per distinct polynomial, gathered back to the masks
        rows, index = en.distinct(n)
        ok = np.array([_unimodal_pair(IntPolynomial(r)) for r in rows.tolist()])
        masks = np.arange(len(index), dtype=np.int64)
        report.record_mask_failures(
            n, masks, ok[index, 0], "q coefficients not unimodal"
        )
        report.record_mask_failures(
            n, masks, ok[index, 1], "x q(1+x) coefficients not unimodal"
        )

    rng = random.Random(seed)
    cache: dict = {}  # shared: small subproblems recur across the samples
    for _ in range(random_samples):
        n = rng.randint(n_max + 1, random_max_order)
        edges = [e for e in combinations(range(n), 2) if rng.getrandbits(1)]
        g = Graph(n, edges)
        ok_q, ok_r = _unimodal_pair(interlace_polynomial(g, cache))
        report.check(ok_q, g, "q coefficients not unimodal")
        report.check(ok_r, g, "x q(1+x) coefficients not unimodal")

    # the known witness: q of the 3-leaf star is unimodal but not log-concave
    witness = star_polynomial(3)
    ok = not is_log_concave(witness) and is_unimodal(witness)
    report.check(ok, "K_{1,3}", "expected non-log-concave unimodal witness")
    return _finish(report, t0)


def _unimodal_pair(q: IntPolynomial) -> tuple[bool, bool]:
    """Whether q and x q(1+x) are unimodal (internal zeros count as
    failures)."""
    return is_unimodal(q), is_unimodal(q.shift_argument(1).mul_x())

