"""Tests for the graph core: pivot, structural ops, file formats."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlacepoly.graphs import (
    Graph,
    NotAnEdgeError,
    TooLargeError,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    component_count,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    edgeless_graph,
    format_edge_list,
    from_graph6,
    independence_number,
    induced_subgraph,
    is_connected,
    label_swap,
    matching_number,
    parse_edge_list,
    path_graph,
    pivot,
    pivot_brute,
    relabel,
    star_graph,
    to_graph6,
)


def random_graph(rng, n, p=0.5):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_construction_and_validation():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.edge_count == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert Graph(0).n == 0  # null graph is legal
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(65)


def test_from_rows_takes_only_the_rows_of_a_simple_graph():
    assert Graph.from_rows([2, 1]) == Graph(2, [(0, 1)])
    # an asymmetric pair, a loop, an out-of-range bit and a negative row;
    # [6, 1] and [-2, 1] agree with K_2's rows [2, 1] on every in-range bit
    for rows in ([2, 0], [1, 0], [6, 1], [-2, 1]):
        with pytest.raises(ValueError, match="asymmetric, looped, out-of-range"):
            Graph.from_rows(rows)
    with pytest.raises(ValueError, match="order must be <= 64"):
        Graph.from_rows([0] * 65)


def test_pivot_path_becomes_cycle():
    # path 0-1-2-3, pivot on the middle edge (1,2): 0 and 3 get joined
    g = path_graph(3)
    got = pivot(g, 1, 2)
    assert got == cycle_graph(4) or sorted(got.edges()) == sorted(
        [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


def test_pivot_involution_and_symmetry():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 9))
        edges = list(g.edges())
        if not edges:
            continue
        a, b = rng.choice(edges)
        assert pivot(pivot(g, a, b), a, b) == g
        assert pivot(g, a, b) == pivot(g, b, a)


def test_pivot_pendant_fixed_point():
    # d(a) = 1 forces G^{ab} = G
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 8))
        # attach a fresh pendant vertex a to a random b
        b = rng.randrange(g.n)
        g2 = Graph(g.n + 1, list(g.edges()) + [(b, g.n)])
        assert pivot(g2, g.n, b) == g2


def test_pivot_matches_brute_oracle():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(2, 10))
        edges = list(g.edges())
        if not edges:
            continue
        a, b = rng.choice(edges)
        assert pivot(g, a, b) == pivot_brute(g, a, b)


def test_pivot_requires_edge():
    g = Graph(3, [(0, 1)])
    with pytest.raises(NotAnEdgeError):
        pivot(g, 0, 2)
    with pytest.raises(ValueError):
        pivot(g, 1, 1)


def test_pivot_preserves_connectivity_and_neighborhoods():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        g = random_graph(rng, rng.randrange(3, 9))
        edges = list(g.edges())
        if not edges or not is_connected(g):
            continue
        a, b = rng.choice(edges)
        h = pivot(g, a, b)
        assert is_connected(h)
        assert h.rows[a] == g.rows[a] and h.rows[b] == g.rows[b]
        checked += 1


def test_pivot_triple_identities():
    # G^{(ab)(ac)(ab)} = G_{bc} and G^{(ab)(ac)} = (G^{ac})_{bc} whenever
    # ab and ac are both edges (the third pivot is on ab, not bc: the bc
    # variant fails a brute-force sweep).
    for g in all_graphs(4):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    if len({a, b, c}) < 3:
                        continue
                    if not (g.has_edge(a, b) and g.has_edge(a, c)):
                        continue
                    gg = pivot(pivot(g, a, b), a, c)
                    assert pivot(gg, a, b) == label_swap(g, b, c)
                    assert gg == label_swap(pivot(g, a, c), b, c)


def test_label_swap():
    k4 = complete_graph(4)
    assert label_swap(k4, 1, 3) == k4
    star = star_graph(3)
    assert label_swap(star, 1, 2) == star
    # path 0-1-2, swap(0,1) -> edges {01, 02}
    g = label_swap(path_graph(2), 0, 1)
    assert sorted(g.edges()) == [(0, 1), (0, 2)]
    # conjugation: swapped graph has swapped adjacency
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, 6)
        h = label_swap(g, 2, 5)
        for u, v in combinations(range(6), 2):
            mu = 5 if u == 2 else 2 if u == 5 else u
            mv = 5 if v == 2 else 2 if v == 5 else v
            assert g.has_edge(u, v) == h.has_edge(mu, mv)


def test_delete_induced_union():
    e3 = edgeless_graph(3)
    assert delete_vertex(e3, 1) == edgeless_graph(2)

    assert induced_subgraph(complete_graph(5), [0, 2, 4]) == complete_graph(3)

    u = disjoint_union(edgeless_graph(2), complete_graph(2))
    assert u.n == 4 and u.edge_count == 1 and u.has_edge(2, 3)

    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = delete_vertex(g, 1)
    assert sorted(h.edges()) == [(1, 2)]
    with pytest.raises(ValueError):
        delete_vertex(g, 4)


def test_components():
    assert component_count(edgeless_graph(3)) == 3
    assert component_count(complete_graph(4)) == 1
    assert component_count(disjoint_union(cycle_graph(3), complete_graph(2))) == 2
    assert is_connected(Graph(0)) and is_connected(Graph(1))
    assert not is_connected(edgeless_graph(2))


def test_independence_and_matching():
    assert independence_number(complete_graph(6)) == 1
    assert independence_number(edgeless_graph(7)) == 7
    assert independence_number(cycle_graph(5)) == 2
    assert matching_number(path_graph(3)) == 2
    assert matching_number(complete_graph(5)) == 2
    assert matching_number(star_graph(4)) == 1
    with pytest.raises(TooLargeError):
        independence_number(edgeless_graph(25))
    with pytest.raises(TooLargeError):
        matching_number(edgeless_graph(25))


def test_builders():
    # K_{2,2} is the 4-cycle up to the interleaving relabeling
    assert relabel(complete_bipartite_graph(2, 2), [0, 2, 1, 3]) == cycle_graph(4)
    assert complete_multipartite_graph([1, 1, 1]) == complete_graph(3)
    assert complete_multipartite_graph([3]) == edgeless_graph(3)
    assert path_graph(0).n == 1
    w4 = complete_multipartite_graph([2, 2, 1])
    assert w4.edge_count == 8
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_builders_reject_negative_sizes():
    for build in (
        lambda: complete_bipartite_graph(-1, 2),
        lambda: complete_multipartite_graph([2, -1]),
        lambda: star_graph(-1),
        lambda: path_graph(-1),
    ):
        with pytest.raises(ValueError):
            build()


def test_edge_list_roundtrip():
    g = Graph(5, [(0, 1), (1, 4), (2, 3)])
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    commented = "# a comment\n3 1\n\n0 2\n"
    assert parse_edge_list(commented) == Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # promised 2 edges, gave 1


@st.composite
def _edge_list_texts(draw):
    # a well-formed text of order <= 7, or that text with one defect
    n = draw(st.integers(0, 7))
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    edges = draw(st.lists(pairs, max_size=8, unique_by=frozenset)) if n > 1 else []
    lines = [f"{u} {v}" for u, v in edges]
    defect = draw(st.sampled_from([None] * 4 + ["repeat", "vertex", "count", "junk"]))
    if defect == "repeat" and edges:
        u, v = draw(st.sampled_from(edges))
        lines.append(draw(st.sampled_from([f"{u} {v}", f"{v} {u}"])))
    elif defect == "vertex":  # a loop, or out of range
        u = draw(st.integers(-1, n))
        lines.append(f"{u} {draw(st.sampled_from([u, -1, n]))}")
    elif defect == "junk":
        junk = draw(st.text(" 0123-x#", max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    m = draw(st.integers(-1, 9)) if defect == "count" else len(lines)
    return "\n".join([f"{n} {m}"] + lines)


@settings(max_examples=500, derandomize=True, database=None)
@given(_edge_list_texts())
@example("2 2\n0 1\n1 0")  # a repeated edge: K_2 has 1 edge, not the promised 2
def test_edge_list_parses_to_its_header(text):
    # malformed text raises ValueError; a parsed graph has the header's m
    # edges and writes back to itself (the header is the first line here)
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    assert g.edge_count == int(text.split()[1])
    assert parse_edge_list(format_edge_list(g)) == g


def test_graph6_known_values():
    # spot values computable by hand from the format definition
    assert to_graph6(edgeless_graph(0)) == "?"
    assert to_graph6(complete_graph(2)) == "A_"
    assert to_graph6(edgeless_graph(2)) == "A?"
    assert from_graph6("A_") == complete_graph(2)
    assert from_graph6(">>graph6<<A_") == complete_graph(2)


def test_graph6_roundtrip_all_small_and_random():
    for n in range(5):
        for g in all_graphs(n):
            assert from_graph6(to_graph6(g)) == g
    rng = random.Random(17)
    for n in (10, 32, 63, 64):
        for _ in range(5):
            g = random_graph(rng, n, 0.3)
            assert from_graph6(to_graph6(g)) == g


@settings(max_examples=500, derandomize=True, database=None)
@given(st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=12))
@example("!" + "?" * 78)  # size byte below 63: order -30
@example("~???")  # long-form order 0, which has a one-byte form
@example("A`")  # K_2 with a nonzero padding bit; K_2 is "A_"
def test_graph6_parses_only_canonical_text(text):
    # malformed text raises ValueError; anything parsed writes back unchanged
    try:
        g = from_graph6(text)
    except ValueError:
        return
    assert to_graph6(g) == text.removeprefix(">>graph6<<")


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    for n in (0, 1, 2, 5, 9, 20, 63):
        for _ in range(4):
            g = random_graph(rng, n, 0.4)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert to_graph6(g) == theirs
            back = nx.from_graph6_bytes(to_graph6(g).encode())
            assert sorted(map(tuple, map(sorted, back.edges()))) == sorted(
                map(tuple, map(sorted, g.edges()))
            )


def test_relabel_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        inv = [0] * 7
        for i, p in enumerate(perm):
            inv[p] = i
        assert relabel(relabel(g, perm), inv) == g
