"""Tests for the interlace polynomial: recursion, closed forms, calculus."""

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter, deque
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from interlacepoly import enumeration as en

from interlacepoly.graphs import (
    Graph,
    TooLargeError,
    _mask_of_rows,
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
    substitute,
)
from interlacepoly.interlace import (
    FRONTIER_MIN_ORDER,
    LEAF_ORDER,
    _WEIGHTS,
    _bfs_relabel,
    _merge,
    _q_rows,
    _unpack,
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
    thick_graph,
    vertex_duplication_polynomial,
    vertex_multiplication_polynomial,
)
from interlacepoly.polynomials import IntPolynomial

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
        m = abs(p.evaluate(-1))
        assert m and not m & (m - 1)
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


def test_recursion_matches_nullity_oracle_at_every_order_it_serves():
    """The last-vertex recursion on the given labels, against the pivot-free
    oracle, at every order below FRONTIER_MIN_ORDER: seeded G(n, p), and
    disjoint unions with isolated vertices and shuffled labels."""
    rng = random.Random(61)
    graphs = [
        random_graph(rng, n, p)
        for n in range(1, FRONTIER_MIN_ORDER)
        for p in (0.2, 0.5, 0.8)
    ]
    for n, isolated in ((2, 2), (3, 1), (5, 3), (6, 2), (8, 3), (9, 2), (7, 4)):
        g = disjoint_union(random_graph(rng, n), edgeless_graph(isolated))
        graphs.append(shuffled(rng, g))
    for g in graphs:
        assert _unpack(_q_rows(g.rows, {}), g.n) == q_by_nullity(g), g


def test_leaf_path_matches_nullity_oracle():
    """Graphs of order >= FRONTIER_MIN_ORDER go to the frontier, which reads
    its order-6 leaves from the table; check them against a pivot-free
    oracle."""
    rng = random.Random(53)
    t = FRONTIER_MIN_ORDER
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
    # the frontier's leaf key, the pair-mask codec on uint64 columns, of
    # every graph of order <= 6; with no columns the codec returns the int 0
    for k in range(LEAF_ORDER + 1):
        graphs = list(en.all_graphs(k))
        rows = np.array([g.rows for g in graphs], dtype=np.uint64).reshape(len(graphs), k)
        keys = np.broadcast_to(_mask_of_rows(rows.T), len(graphs))
        assert k == 0 or keys.dtype == np.uint64
        assert keys.tolist() == [en.mask_of_graph(g) for g in graphs]


def queue_bfs_relabel(g):
    """g renamed by a plain queue: breadth first from each unvisited vertex
    in increasing order, neighbors in increasing order."""
    perm = {}
    for root in range(g.n):
        if root in perm:
            continue
        perm[root] = len(perm)
        queue = deque([root])
        while queue:
            for w in g.neighbors(queue.popleft()):
                if w not in perm:
                    perm[w] = len(perm)
                    queue.append(w)
    return relabel(g, [perm[v] for v in range(g.n)])


def test_bfs_relabel_is_a_queue_bfs():
    # the frontier's vertex order: equal relabeled graphs mean equal levels
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(73)
    graphs += [random_graph(rng, 20, p) for p in (0.05, 0.1, 0.2, 0.5) for _ in range(10)]
    for g in graphs:
        assert _bfs_relabel(g) == queue_bfs_relabel(g)


def test_order_64_closed_forms():
    # coefficients up to 2^63 and 65 coefficients, on the frontier: a
    # narrower lane, a signed sum or a wrong shift would show here
    assert q(complete_graph(64)) == complete_polynomial(64)
    assert q(star_graph(63)) == star_polynomial(63)
    assert q(edgeless_graph(64)) == edgeless_polynomial(64)


def test_memo_shared_below_and_above_leaf_order():
    rng = random.Random(59)
    shared: dict = {}
    orders = [8, FRONTIER_MIN_ORDER, 11, FRONTIER_MIN_ORDER + 1, 13, 7]
    for n in orders:
        g = random_graph(rng, n)
        assert interlace_polynomial(g, shared) == interlace_polynomial(g, {})


def test_small_graphs_build_no_leaf_table():
    """In a fresh interpreter, graphs below FRONTIER_MIN_ORDER (the circuits
    workload's 10-symbol words among them) build no table, the first
    frontier call builds the orders <= 6 and not order 7, and neither
    imports a numpy module beyond numpy's own import (as np.unique does
    numpy.ma, and np.random.default_rng numpy.random)."""
    script = textwrap.dedent(
        """
        import random
        import sys
        from interlacepoly import DoubleOccurrenceWord, interlace_graph
        from interlacepoly import enumeration
        from interlacepoly.graphs import Graph
        from interlacepoly.interlace import FRONTIER_MIN_ORDER, interlace_polynomial

        rng = random.Random(3)
        word = [s for s in range(10) for _ in (0, 1)]
        rng.shuffle(word)
        graphs = [interlace_graph(DoubleOccurrenceWord(word))]
        for n in range(1, FRONTIER_MIN_ORDER):
            pairs = [(i, j) for j in range(n) for i in range(j)]
            graphs.append(Graph(n, [e for e in pairs if rng.random() < 0.5]))
        for g in graphs:
            interlace_polynomial(g)
        print(len(enumeration._LEVELS), end=" ")
        interlace_polynomial(Graph(FRONTIER_MIN_ORDER, [(0, 1), (1, 2)]))
        print(len(enumeration._LEVELS), end=" ")
        print("numpy.ma" in sys.modules, "numpy.random" in sys.modules)
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
    assert proc.stdout.split() == ["1", "7", "False", "False"]  # orders 0..6, not 7


def recursion(g):
    """q(G) by the table-free memoized recursion, whatever the order, on
    the frontier's breadth-first labels: on a shuffled long path the
    last-vertex step would otherwise meet exponentially many subgraphs."""
    return _unpack(_q_rows(_bfs_relabel(g).rows, {}), g.n)


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_frontier_matches_recursion_on_seeded_gnp():
    rng = random.Random(67)
    for n in range(FRONTIER_MIN_ORDER, 21):
        for p in (0.2, 0.5, 0.8):
            g = random_graph(rng, n, p)
            assert interlace_polynomial(g) == recursion(g), (n, p)


def test_frontier_matches_recursion_on_structured_graphs():
    rng = random.Random(71)

    def tree(n):
        return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])

    def with_chords(g, m):
        rows = list(g.rows)
        while m:
            u, v = rng.sample(range(g.n), 2)
            if not rows[u] >> v & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                m -= 1
        return Graph.from_rows(rows)

    def grid(r, c):
        right = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
        down = [(i * c + j, i * c + j + c) for i in range(r - 1) for j in range(c)]
        return Graph(r * c, right + down)

    k7 = complete_graph(7)
    corpus = [
        path_graph(63),
        cycle_graph(64),
        complete_graph(64),
        star_graph(63),
        edgeless_graph(64),
        tree(64),
        with_chords(tree(40), 10),
        grid(5, 6),
        grid(6, 6),
        random_graph(rng, 30, 0.1),
        random_graph(rng, 40, 0.06),
        disjoint_union(disjoint_union(k7, k7), k7),
    ]
    for g in corpus:
        h = shuffled(rng, g)
        assert interlace_polynomial(h) == recursion(h), g


def test_frontier_matches_recursion_on_unions_with_isolated_vertices():
    rng = random.Random(73)
    for n, isolated in ((9, 3), (11, 1), (12, 2), (14, 5), (7, 8)):
        g = shuffled(rng, disjoint_union(random_graph(rng, n), edgeless_graph(isolated)))
        assert interlace_polynomial(g) == recursion(g), (n, isolated)


def test_frontier_matches_nullity_oracle():
    rng = random.Random(79)
    for n in range(FRONTIER_MIN_ORDER, 15):
        for p in (0.2, 0.5, 0.8):
            g = random_graph(rng, n, p)
            assert interlace_polynomial(g) == q_by_nullity(g), (n, p)


def merged_sums(entries, c):
    """Each distinct row of the merged entries with the sum of its c."""
    sums = Counter()
    for row, ci in zip(map(tuple, entries.tolist()), c.tolist()):
        sums[row] += ci
    return sums


def test_merge_sums_repeated_rows_into_distinct_rows():
    # small values make a weak key (a short linear sum) collide often, and
    # many repeats interleave the colliding rows in the sort
    rng = np.random.default_rng(89)
    for k in (1, 2, 5, 9, 65):  # 65: s and 64 rows, the widest entry
        pool = rng.integers(0, 4, size=(40, k), dtype=np.uint64)
        entries = pool[rng.integers(0, len(pool), size=3000)]
        c = rng.integers(1, 1000, size=len(entries), dtype=np.uint64)
        rows, sums = _merge(entries, c)
        assert len(set(map(tuple, rows.tolist()))) == len(rows), k
        assert merged_sums(rows, sums) == merged_sums(entries, c), k


def test_merge_never_merges_unequal_rows_with_equal_keys():
    # [w1, 0] and [0, w0] both have the key w0 w1 mod 2^64: a key
    # collision, which a merge on the key alone would sum together
    w = [int(x) for x in _WEIGHTS[:4]]
    crafted = [
        [[w[1], 0], [0, w[0]]],
        [[w[2], 0, 0], [0, 0, w[0]], [0, w[2], 0], [0, 0, w[1]], [1, 2, 3]],
        [[w[3], 0, 0, 0], [0, 0, 0, w[0]], [0, w[2], w[1], 0], [0, 0, 0, 0]],
    ]
    rng = random.Random(97)
    for rows in crafted:
        keys = {sum(x * y for x, y in zip(row, w)) % 2**64 for row in rows}
        assert len(keys) < len(rows)  # the crafted rows do collide
        entries = np.array([rng.choice(rows) for _ in range(200)], dtype=np.uint64)
        c = np.array([rng.randrange(1, 50) for _ in range(200)], dtype=np.uint64)
        merged, sums = _merge(entries, c)
        assert merged_sums(merged, sums) == merged_sums(entries, c)


def gf2_nullity(rows):
    """The nullity of a GF(2) matrix given by its Python-int rows."""
    basis = {}  # leading bit -> row
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(rows) - len(basis)


def test_frontier_at_orders_21_to_26_by_pivot_free_invariants():
    """Beyond every other check of the frontier, by facts that need no
    pivot: q(G;-1) = (-1)^n (-2)^k, k the GF(2) nullity of A + I
    (Balister, Bollobas, Cutler and Pebody 2002), q(G;2) = 2^n, the lowest
    degree is the component count, and q does not depend on the labels."""
    rng = random.Random(83)
    cases = [(n, p) for n in range(21, 25) for p in (0.2, 0.5, 0.8)] + [(26, 0.5)]
    for n, p in cases:
        g = random_graph(rng, n, p)
        got = interlace_polynomial(g)
        k = gf2_nullity([r | 1 << v for v, r in enumerate(g.rows)])
        assert got.evaluate(-1) == (-1) ** n * (-2) ** k, (n, p)
        assert got.evaluate(2) == 2**n, (n, p)
        assert got.lowest_degree() == component_count(g), (n, p)
        assert interlace_polynomial(shuffled(rng, g)) == got, (n, p)


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
