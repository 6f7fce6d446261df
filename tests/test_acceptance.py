"""Acceptance criteria, one test per criterion, at full stated scale.

Every check is an exact integer / polynomial equality; there are no
tolerances anywhere.  Heavy sweeps are marked slow but still run by
default; deselect with `-m "not slow"` for a quick pass.

Criterion 10 contains one deliberately expected failure: the claim that
a two-nonzero-term interlace polynomial forces a solid path of length 2
or 3 plus complete components is false (the 4-cycle and 5-cycle are
counterexamples), so that single sub-claim is an xfail that documents
the defect; every other part of criterion 10 is asserted green.
"""

import hashlib
import json
import random
import time
from itertools import combinations

import pytest

from interlacepoly.euler import (
    DoubleOccurrenceWord,
    anti_circuit_count,
    circuit_partition_polynomial,
    digraph_from_word,
    euler_circuit_count_best,
    euler_circuits_brute,
    interlace_graph,
    loops_digraph,
)
from interlacepoly.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    path_graph,
    star_graph,
)
from interlacepoly.interlace import (
    complete_bipartite_polynomial,
    complete_multipartite_polynomial,
    complete_polynomial,
    cycle_polynomial,
    edgeless_polynomial,
    interlace_polynomial,
    path_polynomial,
    star_polynomial,
)
from interlacepoly.polynomials import IntPolynomial
from interlacepoly.suites import (
    run_conjecture_suite,
    run_extremal_suite,
    run_identity_suite,
    run_orbit_suite,
)

CACHE: dict = {}


def q(g):
    return interlace_polynomial(g, CACHE)


def poly(*coeffs):
    return IntPolynomial(coeffs)


def report_line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def identity_full():
    return run_identity_suite(n_max=7, word_samples=500, seed=20)


@pytest.fixture(scope="module")
def extremal_full():
    return run_extremal_suite(n_max=7)


def test_criterion_01_closed_forms_match_recursion():
    for n in range(11):
        assert q(edgeless_graph(n)) == edgeless_polynomial(n)
    for n in range(1, 11):
        assert q(complete_graph(n)) == complete_polynomial(n)
        assert q(complete_graph(n)) == poly(0, 2 ** (n - 1))
    for n in range(2, 9):
        assert q(star_graph(n)) == star_polynomial(n)
    for m in range(1, 6):
        for n in range(1, 6):
            assert q(complete_bipartite_graph(m, n)) == (
                complete_bipartite_polynomial(m, n)
            )

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for total in range(1, 9):
        for parts in compositions(total):
            assert q(complete_multipartite_graph(parts)) == (
                complete_multipartite_polynomial(parts)
            )
    for n in range(13):
        assert q(path_graph(n)) == path_polynomial(n)
    for n in range(3, 13):
        assert q(cycle_graph(n)) == cycle_polynomial(n)
    assert cycle_polynomial(3) == poly(0, 4)
    report_line(1, True, "(closed forms = recursion for E, K, stars, K_mn, "
                         "multipartite, paths, cycles)")


def test_criterion_02_fibonacci_path_values():
    fib = [0, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    for n in range(16):
        assert path_polynomial(n).evaluate(1) == fib[n + 2]
        assert q(path_graph(n)).evaluate(1) == fib[n + 2]
    report_line(2, True, "(q(P_n;1) = F_{n+2} for n <= 15)")


def test_criterion_03_identity_suite_ci_variant():
    t0 = time.monotonic()
    rep = run_identity_suite(n_max=6, word_samples=500, seed=20)
    elapsed = time.monotonic() - t0
    report_line(
        3,
        rep.passed and elapsed <= 60,
        f"(CI variant n<=6: {rep.checked} checks, "
        f"{len(rep.violations)} violations, {elapsed:.1f}s)",
    )


@pytest.mark.slow
def test_criterion_03_identity_suite_full(identity_full):
    rep = identity_full
    ok = rep.passed and rep.elapsed_ms <= 15 * 60 * 1000
    report_line(
        3,
        ok,
        f"(full n<=7: {rep.checked} checks, {len(rep.violations)} violations, "
        f"{rep.elapsed_ms / 1000:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_04_pivot_triple_identities(identity_full):
    # the triple-pivot identities are part of the identity suite at
    # orders <= 7; zero violations there covers this criterion
    bad = [v for v in identity_full.violations if "pivot triple" in v["detail"]
           or "pivot pair" in v["detail"]]
    report_line(4, not bad, "(triple-pivot identities, all graphs of order <= 7)")


def _seeded_words(count=500, seed=20, lo=3, hi=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(lo, hi)
        syms = list(range(n)) * 2
        rng.shuffle(syms)
        out.append(DoubleOccurrenceWord(syms))
    return out


def test_criterion_05_euler_bridge_corpus():
    t0 = time.monotonic()
    for w in _seeded_words():
        h = interlace_graph(w)
        d = digraph_from_word(w)
        qh = q(h)
        r = circuit_partition_polynomial(d)
        assert qh.shift_argument(1).mul_x() == r
        brute = len(euler_circuits_brute(d))
        assert brute == euler_circuit_count_best(d) == qh.evaluate(1)
    elapsed = time.monotonic() - t0
    report_line(5, elapsed <= 60, f"(500 seeded words, 3..8 symbols, {elapsed:.1f}s)")


def test_criterion_06_martin_at_minus_two():
    for w in _seeded_words():
        d = digraph_from_word(w)
        a = anti_circuit_count(d)
        r = circuit_partition_polynomial(d)
        assert r.evaluate(-2) == (-1) ** (w.n + a) * 2**a
    report_line(6, True, "(r(D;-2) = (-1)^(n+a) 2^a on the same corpus)")


def test_criterion_07_loop_digraphs():
    assert circuit_partition_polynomial(loops_digraph(3)) == poly(0, 2, 3, 1)
    rising = IntPolynomial.one()
    for m in range(1, 9):
        rising = rising * IntPolynomial((m - 1, 1))
        assert circuit_partition_polynomial(loops_digraph(m)) == rising
    report_line(7, True, "(r of m loops = x(x+1)...(x+m-1), m <= 8)")


@pytest.mark.slow
def test_criterion_08_orbit_laws():
    rep = run_orbit_suite(max_symbols=6)
    ok = rep.passed and rep.elapsed_ms <= 5 * 60 * 1000
    report_line(
        8,
        ok,
        f"(all words of <= 6 symbols: {rep.checked} checks, "
        f"{len(rep.violations)} violations, {rep.elapsed_ms / 1000:.0f}s)",
    )


def test_criterion_09_regression_vectors():
    assert q(cycle_graph(5)) == poly(0, 6, 5)
    c5chord = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert q(c5chord) == poly(0, 6, 5)

    t1 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7), (4, 8)])
    t2 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (4, 8)])
    assert q(t1) == q(t2) == poly(0, 2, 9, 17, 13, 4)

    wheel = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
    rimless = Graph(5, [(1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
    assert q(rimless).evaluate(1) == 11 and q(wheel).evaluate(1) == 9

    for n in range(2, 9):
        for m in range(1, n):
            g = disjoint_union(complete_graph(m), complete_graph(n - m))
            assert q(g) == poly(0, 0, 2 ** (n - 2))
    report_line(9, True, "(C5 pair, tree pair, wheel pair, clique unions)")


@pytest.mark.slow
def test_criterion_10_extremal_suite(extremal_full):
    other = [
        v for v in extremal_full.violations if "two-term graph" not in v["detail"]
    ]
    report_line(
        10,
        not other,
        f"(bounds + equality classes + second-max + star terms at n<=7: "
        f"{extremal_full.checked} checks; two-term classification excluded, "
        f"see xfail)",
    )


@pytest.mark.slow
def test_criterion_10_extremal_report_is_pinned(extremal_full):
    # the whole report, counterexamples included, is fixed by the math:
    # any change to the sweep must reproduce it byte for byte
    data = extremal_full.to_json_dict()
    del data["elapsed_ms"]
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert extremal_full.checked == 14865788
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "933c93301423791538876d5558796cc15c13fd2501046f5a693aa2b7db57399f"
    )


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="the two-term classification is false: the 4-cycle (2x+3x^2) and "
    "5-cycle (6x+5x^2) have exactly two nonzero terms but are not solid "
    "paths plus complete components",
)
def test_criterion_10_two_term_classification(extremal_full):
    bad = [v for v in extremal_full.violations if "two-term graph" in v["detail"]]
    assert not bad


def test_criterion_10_two_term_counterexamples_are_real(extremal_full):
    # the expected-failure above is not an artifact: C_4 and C_5 really are
    # two-term graphs, and the suite really flags them
    assert q(cycle_graph(4)) == poly(0, 2, 3)
    assert q(cycle_graph(5)) == poly(0, 6, 5)
    flagged = {v["graph6"] for v in extremal_full.violations}
    from interlacepoly.graphs import to_graph6

    assert to_graph6(cycle_graph(4)) in flagged or "C]" in flagged


@pytest.mark.slow
def test_criterion_11_conjecture_suite():
    rep = run_conjecture_suite(
        n_max=7, random_samples=5000, random_max_order=13, seed=20
    )
    report_line(
        11,
        rep.passed,
        f"(unimodality of q and x q(1+x): exhaustive n<=7 plus 5000 seeded "
        f"samples at n<=13, {rep.checked} checks)",
    )


def test_criterion_12_performance_order_20():
    rng = random.Random(20)
    edges = [e for e in combinations(range(20), 2) if rng.getrandbits(1)]
    g = Graph(20, edges)
    t0 = time.monotonic()
    p = interlace_polynomial(g, {})  # fresh cache: no head start
    elapsed = time.monotonic() - t0
    assert p.evaluate(2) == 2**20
    report_line(12, elapsed <= 60, f"(seeded order-20 graph in {elapsed:.2f}s)")
