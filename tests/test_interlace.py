"""Tests for the interlace polynomial: recursion, closed forms, calculus."""

import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from interlacepoly import enumeration as en

from interlacepoly.graphs import (
    Graph,
    TooLargeError,
    complete_bipartite_graph,
    complete_graph,
    component_count,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    edgeless_graph,
    independence_number,
    matching_number,
    path_graph,
    pivot,
    relabel,
    star_graph,
)
from interlacepoly.interlace import (
    LEAF_ORDER,
    LEAF_TABLE_MIN_ORDER,
    _q_rows,
    clique_substitution_polynomial,
    complete_bipartite_polynomial,
    complete_multipartite_polynomial,
    complete_polynomial,
    cycle_polynomial,
    edgeless_polynomial,
    interlace_polynomial,
    path_polynomial,
    rotate,
    solid_graph,
    star_polynomial,
    substitute,
    thick_graph,
    vertex_duplication_polynomial,
    vertex_multiplication_polynomial,
)
from interlacepoly.polynomials import IntPolynomial, is_signed_power_of_two

CACHE: dict = {}


def q(g):
    return interlace_polynomial(g, CACHE)


def poly(*coeffs):
    return IntPolynomial(coeffs)


def random_graph(rng, n, p=0.5):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_base_values():
    assert q(Graph(0)) == poly(1)
    assert q(edgeless_graph(3)) == poly(0, 0, 0, 1)
    assert q(complete_graph(4)) == poly(0, 8)
    assert q(star_graph(3)) == poly(0, 2, 1, 1)
    assert q(cycle_graph(5)) == poly(0, 6, 5)
    assert q(cycle_graph(3)) == poly(0, 4)


def test_regression_vectors():
    # the 4-spoke wheel and the same graph minus a rim edge
    wheel = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
    rimless = Graph(5, [(1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
    assert q(wheel) == poly(0, 4, 4, 1)
    assert interlace_polynomial(wheel).evaluate(1) == 9
    assert q(rimless) == poly(0, 6, 5)
    assert interlace_polynomial(rimless).evaluate(1) == 11

    # a 5-cycle with a chord has the same polynomial as the plain 5-cycle
    c5chord = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert q(c5chord) == poly(0, 6, 5)

    # two different order-9 trees share a polynomial
    t1 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7), (4, 8)])
    t2 = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (4, 8)])
    expected = poly(0, 2, 9, 17, 13, 4)
    assert q(t1) == expected and q(t2) == expected

    # unions of two cliques depend only on the total order
    for n in range(2, 9):
        for m in range(1, n):
            g = disjoint_union(complete_graph(m), complete_graph(n - m))
            assert q(g) == poly(0, 0, 2 ** (n - 2))


def test_closed_forms_match_recursion():
    for n in range(7):
        assert edgeless_polynomial(n) == q(edgeless_graph(n))
    for n in range(1, 8):
        assert complete_polynomial(n) == q(complete_graph(n))
    for n in range(2, 7):
        assert star_polynomial(n) == q(star_graph(n))
    for m in range(1, 5):
        for n in range(1, 5):
            assert complete_bipartite_polynomial(m, n) == q(
                complete_bipartite_graph(m, n)
            )
    for n in range(9):
        assert path_polynomial(n) == q(path_graph(n))
    for n in range(3, 10):
        assert cycle_polynomial(n) == q(cycle_graph(n))


def test_closed_form_values():
    assert complete_bipartite_polynomial(2, 2) == poly(0, 2, 3)
    assert complete_bipartite_polynomial(1, 1) == poly(0, 2)
    assert path_polynomial(2) == poly(0, 2, 1)
    assert path_polynomial(3) == poly(0, 2, 3)
    assert cycle_polynomial(3) == poly(0, 4)
    assert cycle_polynomial(4) == poly(0, 2, 3)
    assert cycle_polynomial(5) == poly(0, 6, 5)
    with pytest.raises(ValueError):
        star_polynomial(1)
    with pytest.raises(ValueError):
        cycle_polynomial(2)
    with pytest.raises(ValueError):
        complete_polynomial(0)


def test_path_binomial_formula():
    # independent oracle: q(P_n) = sum_r [C(n-r,r) + C(n-r-1,r)] x^(r+1)
    def oracle(n):
        coeffs = [0] * (n // 2 + 2)
        for r in range(n // 2 + 1):
            c = comb(n - r, r) + (comb(n - r - 1, r) if n - r - 1 >= r else 0)
            coeffs[r + 1] = c
        return IntPolynomial(coeffs)

    for n in range(13):
        assert path_polynomial(n) == oracle(n)


def test_fibonacci_evaluation():
    fib = [0, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    for n in range(12):
        assert path_polynomial(n).evaluate(1) == fib[n + 2]


def test_pivot_order_independence_exhaustive_small():
    for n in range(2, 6):
        for g in all_graphs(n):
            expected = q(g)
            for a, b in g.edges():
                for x, y in ((a, b), (b, a)):
                    gx = delete_vertex(g, x)
                    gy = delete_vertex(pivot(g, x, y), y)
                    assert q(gx) + q(gy) == expected


def test_invariants_random():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n)
        p = q(g)
        # order is recoverable from q(2)
        assert p.evaluate(2) == 2**n
        # lowest term degree = component count
        assert p.lowest_degree() == component_count(g)
        # degree bounds
        assert p.degree <= n
        assert p.degree >= independence_number(g)
        # coefficients nonnegative, constant term 0 for order >= 1
        assert all(c >= 0 for c in p.coeffs)
        assert p.coefficient(0) == 0
        # q(-1) is plus or minus a power of two
        assert is_signed_power_of_two(p.evaluate(-1)) is not None
        # pivot invariance
        edges = list(g.edges())
        if edges:
            a, b = rng.choice(edges)
            assert q(pivot(g, a, b)) == p
        # multiplicativity
        h = random_graph(rng, rng.randrange(4))
        if g.n + h.n <= 10:
            assert q(disjoint_union(g, h)) == p * q(h)
        # isomorphism invariance
        perm = list(range(n))
        rng.shuffle(perm)
        assert q(relabel(g, perm)) == p


def test_forest_degree_is_order_minus_matching():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(1, 10)
        # random forest via random parent links with gaps
        edges = []
        for v in range(1, n):
            if rng.random() < 0.8:
                edges.append((rng.randrange(v), v))
        g = Graph(n, edges)
        assert q(g).degree == n - matching_number(g)


def test_memo_cache_consistency():
    rng = random.Random(37)
    shared: dict = {}
    for _ in range(40):
        g = random_graph(rng, rng.randrange(9))
        assert interlace_polynomial(g, shared) == interlace_polynomial(g, {})


def q_by_nullity(g):
    """q(G;x) = sum over S of (x-1)^nullity(A[S]) over GF(2) (Aigner and van
    der Holst 2004): no pivot.  One XOR-basis elimination for all subsets
    at once, then the change of basis from (x-1)^k to x^d."""
    n = g.n
    subsets = np.arange(1 << n, dtype=np.int32)
    basis = np.zeros((n, 1 << n), dtype=np.int32)  # basis[b]: leading bit b
    rank = np.zeros(1 << n, dtype=np.int32)
    for u in range(n):
        r = np.where(subsets >> u & 1, g.rows[u] & subsets, 0)
        for b in reversed(range(n)):
            hit = (r >> b & 1).astype(bool)
            new = hit & (basis[b] == 0)
            basis[b][new] = r[new]
            rank += new
            r ^= np.where(hit, basis[b], 0)  # an inserted row clears itself
    nullity = np.bitwise_count(subsets) - rank
    hist = np.bincount(nullity, minlength=n + 1).tolist()
    return IntPolynomial(
        sum(h * comb(k, d) * (-1) ** (k + d) for k, h in enumerate(hist))
        for d in range(n + 1)
    )


def test_nullity_oracle_matches_closed_forms():
    assert q_by_nullity(path_graph(5)) == path_polynomial(5)
    assert q_by_nullity(cycle_graph(7)) == cycle_polynomial(7)
    assert q_by_nullity(complete_graph(5)) == complete_polynomial(5)
    assert q_by_nullity(edgeless_graph(4)) == edgeless_polynomial(4)


def test_leaf_path_matches_nullity_oracle():
    """Graphs of order >= LEAF_TABLE_MIN_ORDER read their small subproblems
    from the leaf table; check them against a pivot-free oracle."""
    rng = random.Random(53)
    t = LEAF_TABLE_MIN_ORDER
    graphs = [random_graph(rng, n) for n in (t, t, t + 1)]
    for order in (t, t, t + 1):
        # components of order <= LEAF_ORDER, one of them an isolated
        # vertex, with their labels shuffled together
        g = Graph(1)
        while g.n < order:
            k = min(rng.randint(1, LEAF_ORDER), order - g.n)
            g = disjoint_union(g, random_graph(rng, k))
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    for g in graphs:
        assert interlace_polynomial(g) == q_by_nullity(g)


def test_leaf_key_is_the_enumeration_mask():
    # with the identity as leaf table, the lookup returns its own key
    probe = tuple(range(1 << en.pair_count(k)) for k in range(LEAF_ORDER + 1))
    for k in range(LEAF_ORDER + 1):
        for g in en.all_graphs(k):
            assert _q_rows(g.rows, {}, probe) == en.mask_of_graph(g)


def test_order_64_closed_forms():
    # coefficients up to 2^63 and 65 lanes: a narrower lane or a wrong
    # shift would show here
    assert q(complete_graph(64)) == complete_polynomial(64)
    assert q(star_graph(63)) == star_polynomial(63)
    assert q(edgeless_graph(64)) == edgeless_polynomial(64)


def test_memo_shared_below_and_above_leaf_order():
    rng = random.Random(59)
    shared: dict = {}
    orders = [8, LEAF_TABLE_MIN_ORDER, 11, LEAF_TABLE_MIN_ORDER + 1, 13, 7]
    for n in orders:
        g = random_graph(rng, n)
        assert interlace_polynomial(g, shared) == interlace_polynomial(g, {})


def test_small_graphs_build_no_leaf_table():
    """In a fresh interpreter, graphs below LEAF_TABLE_MIN_ORDER (the
    circuits workload's 10-symbol words among them) never build the table,
    and building it imports no numpy module beyond numpy's own import (as
    np.unique does numpy.ma)."""
    script = textwrap.dedent(
        """
        import random
        import sys
        from interlacepoly import DoubleOccurrenceWord, interlace_graph
        from interlacepoly.graphs import Graph
        from interlacepoly.interlace import (
            LEAF_TABLE_MIN_ORDER, _leaf_table, interlace_polynomial)

        rng = random.Random(3)
        word = [s for s in range(10) for _ in (0, 1)]
        rng.shuffle(word)
        graphs = [interlace_graph(DoubleOccurrenceWord(word))]
        for n in range(1, LEAF_TABLE_MIN_ORDER):
            pairs = [(i, j) for j in range(n) for i in range(j)]
            graphs.append(Graph(n, [e for e in pairs if rng.random() < 0.5]))
        for g in graphs:
            interlace_polynomial(g)
        print(_leaf_table.cache_info().currsize, end=" ")
        interlace_polynomial(Graph(LEAF_TABLE_MIN_ORDER))
        print(_leaf_table.cache_info().currsize, end=" ")
        print("numpy.ma" in sys.modules)
        """
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "False"]


def test_substitute():
    k2 = complete_graph(2)
    assert substitute(k2, [edgeless_graph(2), edgeless_graph(2)]) == (
        complete_bipartite_graph(2, 2)
    )
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 7))
        assert substitute(g, [complete_graph(1)] * g.n) == g
    # solid path: pair of cliques overlapping in a clique
    sp = solid_graph(path_graph(2), [2, 1, 2])
    assert sp.n == 5 and sp.edge_count == 6  # 2 inside the cliques, 4 crossing
    assert thick_graph(k2, [2, 2]) == complete_bipartite_graph(2, 2)
    with pytest.raises(ValueError):
        substitute(k2, [k2])


def test_clique_substitution_polynomial():
    rng = random.Random(43)
    assert clique_substitution_polynomial(poly(0, 1), 0) == poly(0, 1)
    # solid graphs: q scales by 2^(order difference)
    for _ in range(25):
        t = random_graph(rng, rng.randrange(1, 5))
        sizes = [rng.randrange(1, 4) for _ in range(t.n)]
        solid = solid_graph(t, sizes)
        assert q(solid) == clique_substitution_polynomial(q(t), solid.n - t.n)
    # substituting K_n for the single vertex of E_1 gives K_n
    for n in range(1, 7):
        assert clique_substitution_polynomial(poly(0, 1), n - 1) == (
            complete_polynomial(n)
        )


def test_vertex_duplication():
    # duplicating either end of K_2 gives the path P_2
    k2 = complete_graph(2)
    k1 = complete_graph(1)
    assert vertex_duplication_polynomial(q(k2), q(k1)) == poly(0, 2, 1)
    # duplicating E_1's vertex gives E_2
    assert vertex_duplication_polynomial(poly(0, 1), poly(1)) == poly(0, 0, 1)
    # against direct recursion on the duplicated graph
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 8))
        a = rng.randrange(g.n)
        dup = substitute(
            g, [edgeless_graph(2) if v == a else complete_graph(1) for v in range(g.n)]
        )
        ga = delete_vertex(g, a)
        assert q(dup) == vertex_duplication_polynomial(q(g), q(ga))


def test_vertex_multiplication():
    rng = random.Random(53)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 6))
        assert vertex_multiplication_polynomial(g, [1] * g.n) == q(g)
    assert vertex_multiplication_polynomial(complete_graph(2), [2, 2]) == poly(0, 2, 3)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 5))
        ks = [rng.randrange(1, 4) for _ in range(g.n)]
        blown = thick_graph(g, ks)
        assert vertex_multiplication_polynomial(g, ks) == q(blown)
    with pytest.raises(TooLargeError):
        vertex_multiplication_polynomial(edgeless_graph(15), [1] * 15)


def test_complete_multipartite_polynomial():
    for n in range(1, 8):
        assert complete_multipartite_polynomial([n]) == edgeless_polynomial(n)
    assert complete_multipartite_polynomial([2, 2]) == poly(0, 2, 3)
    for r in range(1, 7):
        assert complete_multipartite_polynomial([1] * r) == complete_polynomial(r)
    # all part vectors of small total, against recursion
    from interlacepoly.graphs import complete_multipartite_graph

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for total in range(1, 7):
        for parts in compositions(total):
            assert complete_multipartite_polynomial(parts) == q(
                complete_multipartite_graph(parts)
            )


def test_rotation():
    # smallest case: G = E_2 on {u,v}; H = path w-u-v
    h = rotate(edgeless_graph(2), 0, 1)
    assert q(h) == poly(0, 2, 1)
    assert q(edgeless_graph(2)) == poly(0, 0, 1)
    # q_G(x) <= q_H(x) for x >= 1, on random rotations
    rng = random.Random(59)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(2, 8))
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        h = rotate(g, u, v)
        assert h.n == g.n + 1
        assert h.degree(g.n) == 1 and h.has_edge(u, g.n)
        qg, qh = q(g), q(h)
        for x0 in (1, 2, 3):
            assert qg.evaluate(x0) <= qh.evaluate(x0)
