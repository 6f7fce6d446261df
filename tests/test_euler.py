"""Tests for words, balanced digraphs, circuit partitions, and orbits."""

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlacepoly import euler
from interlacepoly.euler import (
    TRANSITION_ENUMERATION_CUTOFF,
    BalancedDigraph,
    DisconnectedError,
    DoubleOccurrenceWord,
    NotInterlacedError,
    anti_circuit_count,
    canonical_word_tuples,
    circuit_partition_polynomial,
    circuit_partitions,
    circuit_transposition_orbit,
    digraph_from_word,
    euler_circuit_count_best,
    euler_circuits_brute,
    interlace_graph,
    interlaced,
    loops_digraph,
    martin_polynomial,
    resolve_vertex,
    transition_system_count,
    transpose,
    word_of_circuit,
)
from interlacepoly.euler import _plain_changes
from interlacepoly.graphs import Graph, TooLargeError, edgeless_graph, label_swap, pivot
from interlacepoly.interlace import interlace_polynomial
from interlacepoly.polynomials import IntPolynomial

W = DoubleOccurrenceWord.parse


def poly(*coeffs):
    return IntPolynomial(coeffs)


def random_word(rng, n):
    syms = list(range(n)) * 2
    rng.shuffle(syms)
    return DoubleOccurrenceWord(syms)


def test_word_construction_and_canonical_rotation():
    w = DoubleOccurrenceWord((1, 0, 1, 0))
    assert w.symbols == (0, 1, 0, 1)
    assert DoubleOccurrenceWord((0, 1, 1, 0)).symbols == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        DoubleOccurrenceWord((0, 1, 1))
    with pytest.raises(ValueError):
        DoubleOccurrenceWord((0, 0, 2, 2))  # ids must be dense
    with pytest.raises(ValueError):
        DoubleOccurrenceWord((0, 0, 1, 1, 1, 1, 0, 0))
    # the canonical rotation is the least of all rotations
    rng = random.Random(52)
    words = [t for n in range(5) for t in canonical_word_tuples(n)]
    for _ in range(300):
        syms = list(range(rng.randint(1, 8))) * 2
        rng.shuffle(syms)
        words.append(tuple(syms))
    for t in words:
        for i in range(len(t)):
            w = t[i:] + t[:i]
            least = min(w[k:] + w[:k] for k in range(len(w))) if w else w
            assert euler._canonical_rotation(w) == least


def test_word_parse_and_render():
    w = W("alpha beta alpha beta")
    assert w.symbols == (0, 1, 0, 1)
    assert str(w) == "alpha beta alpha beta"
    assert w == DoubleOccurrenceWord((0, 1, 0, 1))


_TOKEN = st.text(st.characters(blacklist_categories=("Z", "Cc", "Cs")), min_size=1)


@st.composite
def _word_texts(draw):
    # a word of <= 5 symbols with arbitrary tokens, or one token off it
    names = draw(st.lists(_TOKEN, max_size=5, unique=True))
    tokens = draw(st.permutations(names * 2))
    defect = draw(st.sampled_from([None, None, "drop", "extra"]))
    if defect == "drop" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif defect == "extra":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_TOKEN))
    return draw(st.sampled_from([" ", "\t", "\n "])).join(tokens)


@settings(max_examples=500, derandomize=True, database=None)
@given(_word_texts() | st.text(max_size=12))
def test_word_text_round_trips(text):
    # malformed text raises ValueError; a parsed word reads back unchanged
    try:
        w = W(text)
    except ValueError:
        return
    assert W(str(w)) == w and str(W(str(w))) == str(w)


def test_interlace_graph_examples():
    assert interlace_graph(W("1 1 2 2 3 3")) == edgeless_graph(3)
    assert interlace_graph(W("1 2 1 2")) == Graph(2, [(0, 1)])
    # path-shaped and cycle-shaped interlace graphs from the same digraph
    g1 = interlace_graph(W("1 2 3 1 3 4 2 4"))
    assert sorted(g1.edges()) == [(0, 1), (0, 2), (1, 3)]
    g2 = interlace_graph(W("1 2 4 1 3 4 2 3"))
    assert sorted(g2.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert g1.edge_count == 3 and g2.edge_count == 4  # not isomorphic


def test_digraph_from_word():
    d = digraph_from_word(W("1 2 1 2"))
    assert sorted(d.arcs) == [(0, 1), (0, 1), (1, 0), (1, 0)]
    assert d.is_two_in_two_out
    d2 = digraph_from_word(W("1 1"))
    assert sorted(d2.arcs) == [(0, 0), (0, 0)]
    # same interlace graphs, different digraphs
    assert digraph_from_word(W("1 1 2 2 3 3")) != digraph_from_word(W("1 1 2 3 3 2"))
    # same digraph, different interlace graphs (built on one labeling:
    # parsing each string separately would assign different dense ids)
    wa = DoubleOccurrenceWord((0, 1, 2, 0, 2, 3, 1, 3))
    wb = DoubleOccurrenceWord((0, 1, 3, 0, 2, 3, 1, 2))
    assert digraph_from_word(wa) == digraph_from_word(wb)
    assert interlace_graph(wa) != interlace_graph(wb)
    with pytest.raises(ValueError):
        BalancedDigraph(2, [(0, 1)])  # unbalanced


def test_word_layer_rejects_negative_sizes():
    with pytest.raises(ValueError, match="loop count must be >= 0"):
        loops_digraph(-3)
    with pytest.raises(ValueError, match="order must be >= 0"):
        BalancedDigraph(-2, [])
    with pytest.raises(ValueError, match="symbol count must be >= 0"):
        list(canonical_word_tuples(-2))


def test_a_bool_is_neither_a_symbol_nor_a_coefficient():
    # bool is a subclass of int, but False/True are not the symbols 0/1
    with pytest.raises(ValueError, match="dense ints 0..1, got False"):
        DoubleOccurrenceWord((False, True, False, True))
    for coeffs in ((True, False, True), (1, False)):
        with pytest.raises(TypeError, match="got bool"):
            IntPolynomial(coeffs)
    assert str(DoubleOccurrenceWord((0, 1, 0, 1))) == "0 1 0 1"


def test_digraph_weak_connectivity():
    # connected over every vertex; a free loop is a component of its own
    assert digraph_from_word(W("1 2 3 1 3 4 2 4")).is_connected()
    assert BalancedDigraph(0, []).is_connected()
    assert BalancedDigraph(1, [(0, 0)]).is_connected()
    assert BalancedDigraph(3, [(0, 1), (1, 2), (2, 0)]).is_connected()
    assert not BalancedDigraph(2, [(0, 0)]).is_connected()  # vertex 1 is bare
    assert not BalancedDigraph(2, [(0, 0), (1, 1)]).is_connected()
    assert not BalancedDigraph(1, [(0, 0)], free_loops=1).is_connected()
    assert not BalancedDigraph(0, [], free_loops=1).is_connected()


def test_transpose_example_and_involution():
    w = W("a 1 b 1 a 2 b 2")  # ids: a=0, 1=1, b=2, 2=3
    got = transpose(w, 0, 2)
    assert got == DoubleOccurrenceWord((0, 3, 2, 1, 0, 1, 2, 3))
    assert transpose(got, 0, 2) == w
    with pytest.raises(NotInterlacedError):
        transpose(W("1 1 2 2"), 0, 1)
    # a symbol outside 0..n-1 is rejected, not wrapped or indexed past
    w = W("1 2 3 1 2 3")
    for a, b in ((-1, 0), (0, -1), (0, 3), (3, 0)):
        for op in (interlaced, transpose):
            with pytest.raises(ValueError, match=f"{a} and {b} must both be in 0..2"):
                op(w, a, b)
    rng = random.Random(61)
    for _ in range(200):
        w = random_word(rng, rng.randrange(2, 7))
        pairs = [
            (a, b)
            for a in range(w.n)
            for b in range(a + 1, w.n)
            if interlaced(w, a, b)
        ]
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        t = transpose(w, a, b)
        assert transpose(t, a, b) == w
        # the underlying digraph is preserved
        assert digraph_from_word(t) == digraph_from_word(w)


def test_transpose_commutes_with_pivot():
    # H(transpose(w,a,b)) equals the pivot of H(w) on ab with a,b relabeled
    rng = random.Random(67)
    for _ in range(300):
        w = random_word(rng, rng.randrange(2, 7))
        h = interlace_graph(w)
        edges = list(h.edges())
        if not edges:
            continue
        a, b = rng.choice(edges)
        lhs = interlace_graph(transpose(w, a, b))
        rhs = label_swap(pivot(h, a, b), a, b)
        assert lhs == rhs


def test_circuit_partition_counts_1212():
    d = digraph_from_word(W("1 2 1 2"))
    counts = sorted(len(circuits) for circuits in circuit_partitions(d))
    assert counts == [1, 1, 2, 2]
    assert circuit_partition_polynomial(d) == poly(0, 2, 2)
    # every circuit starts at its least arc, and the circuits are sorted by it
    for dg in (d, loops_digraph(4), digraph_from_word(W("1 2 3 1 3 2 4 4"))):
        for circuits in circuit_partitions(dg):
            starts = [c[0] for c in circuits]
            assert starts == [min(c) for c in circuits] == sorted(starts)


def _reference_r(d):
    """r(D;x) from the per-system reference: one circuit partition per
    transition system."""
    counts = [0] * (len(d.arcs) + d.free_loops + 1)
    for circuits in circuit_partitions(d):
        counts[len(circuits) + d.free_loops] += 1
    return IntPolynomial(counts)


def _random_balanced_digraph(rng, max_order, max_free_loops):
    order = rng.randrange(1, max_order + 1)
    arcs = []
    for _ in range(rng.randrange(1, 4)):
        length = rng.randrange(1, 5)
        verts = [rng.randrange(order) for _ in range(length)]
        arcs.extend((verts[i], verts[(i + 1) % length]) for i in range(length))
    return BalancedDigraph(order, arcs, free_loops=rng.randrange(max_free_loops + 1))


def test_plain_changes_visit_every_permutation():
    for k in range(7):
        swaps = _plain_changes(k)
        perm = list(range(k))
        seen = {tuple(perm)}
        for i in swaps:
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            seen.add(tuple(perm))
        assert len(swaps) + 1 == len(seen) == factorial(k)
        assert swaps == swaps[::-1]  # the Gray walk relies on this


def _digraph_corpus():
    """Loops, free loops, the digraphs of all words of <= 5 symbols and
    their two resolutions at vertex 0, and 200 seeded general digraphs."""
    digraphs = [loops_digraph(m) for m in range(1, 7)]
    digraphs += [BalancedDigraph(0, [], free_loops=k) for k in range(4)]
    for n in range(6):
        for t in canonical_word_tuples(n):
            d = digraph_from_word(DoubleOccurrenceWord(t))
            digraphs.append(d)
            if n:
                digraphs.append(resolve_vertex(d, 0, (0, 1)))
                digraphs.append(resolve_vertex(d, 0, (1, 0)))
    rng = random.Random(1009)
    general = 0
    while general < 200:
        d = _random_balanced_digraph(rng, 4, 3)
        if transition_system_count(d) <= 5000:
            digraphs.append(d)
            general += 1
    return digraphs


def test_gray_walk_matches_per_system_reference():
    for d in _digraph_corpus():
        assert circuit_partition_polynomial(d) == _reference_r(d), d


def test_circuit_partitions_are_closed_walks_covering_every_arc():
    for d in _digraph_corpus():
        count = 0
        for circuits in circuit_partitions(d):
            count += 1
            assert sorted(e for c in circuits for e in c) == list(range(len(d.arcs)))
            for c in circuits:
                for e, f in zip(c, c[1:] + c[:1]):
                    assert d.arcs[e][1] == d.arcs[f][0], (d, c)
        assert count == transition_system_count(d), d


def test_transition_enumeration_cutoff(monkeypatch):
    assert TRANSITION_ENUMERATION_CUTOFF == 1 << 20
    # the word 0 0 1 1 ... 19 19 has exactly 2^20 systems and is still
    # enumerated; its interlace graph is edgeless, so r = x (1 + x)^20
    d = digraph_from_word(DoubleOccurrenceWord(tuple(i // 2 for i in range(40))))
    assert transition_system_count(d) == TRANSITION_ENUMERATION_CUTOFF
    expected = poly(0, 1)
    for _ in range(20):
        expected = expected * poly(1, 1)
    assert circuit_partition_polynomial(d) == expected
    d = digraph_from_word(DoubleOccurrenceWord(tuple(i // 2 for i in range(42))))
    with pytest.raises(TooLargeError):
        circuit_partition_polynomial(d)
    # the cutoff is read at call time: 4 loops on one vertex have 4! systems
    monkeypatch.setattr(euler, "TRANSITION_ENUMERATION_CUTOFF", 23)
    with pytest.raises(TooLargeError):
        circuit_partition_polynomial(loops_digraph(4))
    monkeypatch.setattr(euler, "TRANSITION_ENUMERATION_CUTOFF", 24)
    assert circuit_partition_polynomial(loops_digraph(4)) == poly(0, 6, 11, 6, 1)


def test_circuit_partition_polynomial_loops():
    assert circuit_partition_polynomial(loops_digraph(3)) == poly(0, 2, 3, 1)
    rising = IntPolynomial.one()
    for m in range(1, 7):
        rising = rising * IntPolynomial((m - 1, 1))  # times (x + m - 1)
        assert circuit_partition_polynomial(loops_digraph(m)) == rising
    # arcless digraphs
    assert circuit_partition_polynomial(BalancedDigraph(0, [])) == poly(1)
    assert circuit_partition_polynomial(BalancedDigraph(0, [], free_loops=3)) == (
        poly(0, 0, 0, 1)
    )
    with pytest.raises(TooLargeError):
        circuit_partition_polynomial(loops_digraph(10))  # 10! > 2^20


def test_martin_polynomial():
    assert martin_polynomial(loops_digraph(3)) == poly(0, 1, 1)
    assert martin_polynomial(loops_digraph(2)) == poly(0, 1)
    rng = random.Random(71)
    for _ in range(50):
        d = digraph_from_word(random_word(rng, rng.randrange(1, 6)))
        r = circuit_partition_polynomial(d)
        m = martin_polynomial(d)
        assert m.shift_argument(1).mul_x() == r  # x m(x+1) = r(x)


def test_euler_circuits_brute():
    assert len(euler_circuits_brute(digraph_from_word(W("1 1")))) == 1
    words = euler_circuits_brute(digraph_from_word(W("1 2 1 2")))
    assert len(words) == 2  # two circuits, even though both visit 1 2 1 2
    assert set(words) == {W("1 2 1 2")}
    with pytest.raises(DisconnectedError):
        euler_circuits_brute(BalancedDigraph(2, [(0, 0), (0, 0), (1, 1), (1, 1)]))


def test_counts_agree_brute_best_interlace():
    rng = random.Random(73)
    for _ in range(60):
        w = random_word(rng, rng.randrange(1, 7))
        d = digraph_from_word(w)
        brute = len(euler_circuits_brute(d))
        best = euler_circuit_count_best(d)
        q1 = interlace_polynomial(interlace_graph(w)).evaluate(1)
        assert brute == best == q1
        # r_1 coefficient agrees too
        assert circuit_partition_polynomial(d).coefficient(1) == brute


def test_bridge_identity():
    # x q(H; 1+x) = r(D; x) for words
    rng = random.Random(79)
    for _ in range(80):
        w = random_word(rng, rng.randrange(1, 7))
        q = interlace_polynomial(interlace_graph(w))
        r = circuit_partition_polynomial(digraph_from_word(w))
        assert q.shift_argument(1).mul_x() == r
        assert martin_polynomial(digraph_from_word(w)) == q


def test_anti_circuits_and_martin_at_minus_2():
    d = digraph_from_word(W("1 1"))
    assert anti_circuit_count(d) == 1
    assert circuit_partition_polynomial(d) == poly(0, 1, 1)
    assert circuit_partition_polynomial(d).evaluate(-2) == 2
    rng = random.Random(83)
    for _ in range(80):
        w = random_word(rng, rng.randrange(1, 7))
        d = digraph_from_word(w)
        a = anti_circuit_count(d)
        assert a >= 1
        r2 = circuit_partition_polynomial(d).evaluate(-2)
        assert r2 == (-1) ** (w.n + a) * 2**a


def test_transposition_orbit(monkeypatch):
    w = W("1 1 2 2 3 3")
    assert set(circuit_transposition_orbit(w).values()) == {w}
    # the circuit orbit is the BEST count of circuits, each mapped to its
    # visit word; the word orbit is the set of those words
    rng = random.Random(89)
    for _ in range(40):
        w = random_word(rng, rng.randrange(1, 6))
        d = digraph_from_word(w)
        orbit = circuit_transposition_orbit(w)
        assert len(orbit) == euler_circuit_count_best(d)
        for c, v in orbit.items():  # each circuit is read from arc 0
            assert c[0] == 0 and v == word_of_circuit(d, c)
        # and the closure of {w} under word transpositions, built here
        closure, todo = {w}, [w]
        while todo:
            u = todo.pop()
            for a, b in interlace_graph(u).edges():
                t = transpose(u, a, b)
                if t not in closure:
                    closure.add(t)
                    todo.append(t)
        assert set(orbit.values()) == closure
    # the visit words keep the input's tokens
    orbit = circuit_transposition_orbit(DoubleOccurrenceWord.parse("a b a b"))
    assert sorted(map(str, orbit.values())) == ["a b a b"] * 2
    # the cap counts circuits: 1 2 3 1 2 3 has 4 circuits and one visit word
    w = W("1 2 3 1 2 3")
    monkeypatch.setattr(euler, "CIRCUIT_ORBIT_MAX_SIZE", 2)
    with pytest.raises(TooLargeError, match="orbit exceeds 2 elements"):
        circuit_transposition_orbit(w)


def test_word_orbit_can_be_smaller_than_circuit_count():
    orbit = circuit_transposition_orbit(W("1 2 1 2"))
    assert len(orbit) == 2
    assert len(set(orbit.values())) == 1


def test_resolution_recursion():
    rng = random.Random(101)
    for _ in range(60):
        w = random_word(rng, rng.randrange(1, 6))
        d = digraph_from_word(w)
        v = rng.randrange(d.order)
        r = circuit_partition_polynomial(d)
        r0 = circuit_partition_polynomial(resolve_vertex(d, v, (0, 1)))
        r1 = circuit_partition_polynomial(resolve_vertex(d, v, (1, 0)))
        assert r == r0 + r1
    # resolving two loops on one vertex: a free loop pair or a single free loop
    d = loops_digraph(2)
    assert circuit_partition_polynomial(resolve_vertex(d, 0, (0, 1))) + (
        circuit_partition_polynomial(resolve_vertex(d, 0, (1, 0)))
    ) == poly(0, 1, 1)
    # a vertex outside the digraph, negative indices included, is rejected
    d = digraph_from_word(W("1 2 3 1 2 3"))
    for v in (3, -1):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            resolve_vertex(d, v, (0, 1))


def test_resolution_recursion_general_degrees():
    # the resolution identity extends beyond 2-in/2-out: summing r over
    # all (deg)! matchings at any one vertex recovers r(D)
    from itertools import permutations as perms

    from interlacepoly.euler import transition_system_count

    rng = random.Random(999)
    checked = 0
    while checked < 60:
        d = _random_balanced_digraph(rng, 3, 1)
        if transition_system_count(d) > 5000:
            continue
        v = rng.randrange(d.order)
        ins = d.in_lists[v]
        if not ins:
            continue
        total = None
        for perm in perms(range(len(ins))):
            rr = circuit_partition_polynomial(resolve_vertex(d, v, perm))
            total = rr if total is None else total + rr
        assert total == circuit_partition_polynomial(d)
        checked += 1


def test_transition_system_count():
    assert transition_system_count(loops_digraph(4)) == factorial(4)
    assert transition_system_count(digraph_from_word(W("1 2 3 1 2 3"))) == 8


def test_word_enumeration():
    assert list(canonical_word_tuples(0)) == [()]
    assert list(canonical_word_tuples(1)) == [(0, 0)]
    assert set(canonical_word_tuples(2)) == {(0, 0, 1, 1), (0, 1, 0, 1)}
    for n in (3, 4):
        words = list(canonical_word_tuples(n))
        assert len(set(words)) == len(words)
        # every canonical word accounts for its 0-starting rotations:
        # the total must be (2n-1)!/2^(n-1) linear arrangements
        total = 0
        for w in words:
            i, j = w.index(0), w.index(0, w.index(0) + 1)
            rot = w[j:] + w[:j]
            total += 1 if rot == w else 2
        assert total == factorial(2 * n - 1) // 2 ** (n - 1)
        for w in words:
            assert DoubleOccurrenceWord(w).symbols == w
