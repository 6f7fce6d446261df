"""Tests for the vectorized enumeration engine.

The coefficient tables are a second, independent route to q (bottom-up
mask sweeps vs. the memoized top-down recursion); these tests pin the
two routes to each other and the mask-level operations to the
object-level ones.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from interlacepoly import enumeration as en
from interlacepoly.graphs import (
    Graph,
    TooLargeError,
    component_count,
    component_masks,
    delete_vertex,
    independence_number,
    is_connected,
    label_swap,
    pivot,
)
from interlacepoly.interlace import interlace_polynomial


def test_pair_index_roundtrip():
    seen = set()
    for j in range(8):
        for i in range(j):
            b = en.pair_index(i, j)
            assert en.pair_index(j, i) == b
            assert en.pair_of_bit(b) == (i, j)
            seen.add(b)
    assert seen == set(range(en.pair_count(8)))


def test_mask_graph_roundtrip():
    rng = random.Random(5)
    for n in range(8):
        for _ in range(20):
            mask = rng.randrange(1 << en.pair_count(n))
            g = en.graph_of_mask(n, mask)
            assert en.mask_of_graph(g) == mask


def test_all_graphs_counts():
    assert sum(1 for _ in en.all_graphs(3)) == 8
    assert sum(1 for _ in en.all_graphs(4)) == 64
    connected = list(en.all_graphs(4, connected_only=True))
    assert len(connected) == 38  # labeled connected graphs on 4 vertices
    assert all(is_connected(g) for g in connected)


def test_table_matches_recursion_exhaustively():
    table = en.CoefficientTable(4)
    cache: dict = {}
    for n in range(5):
        for mask in range(1 << en.pair_count(n)):
            g = en.graph_of_mask(n, mask)
            expected = interlace_polynomial(g, cache).coeffs
            row = tuple(int(c) for c in table.table(n)[mask])
            assert row[: len(expected)] == expected
            assert all(c == 0 for c in row[len(expected) :])


def test_table_matches_recursion_sampled_orders_5_to_7():
    table = en.CoefficientTable(7)
    cache: dict = {}
    rng = random.Random(11)
    for n in (5, 6, 7):
        for _ in range(120):
            mask = rng.randrange(1 << en.pair_count(n))
            g = en.graph_of_mask(n, mask)
            expected = interlace_polynomial(g, cache).coeffs
            row = tuple(int(c) for c in table.table(n)[mask])
            assert row[: len(expected)] == expected
            assert all(c == 0 for c in row[len(expected) :])


def test_table_order_cap():
    with pytest.raises(TooLargeError):
        en.CoefficientTable(8)


def test_mask_operations_match_graph_operations():
    rng = random.Random(13)
    for n in (3, 5, 7):
        masks = np.array(
            [rng.randrange(1 << en.pair_count(n)) for _ in range(200)],
            dtype=np.int64,
        )
        v = rng.randrange(n)
        deleted = en.delete_vertex_masks(masks, v, n)
        for mask, dm in zip(masks, deleted):
            g = en.graph_of_mask(n, int(mask))
            gd, _ = delete_vertex(g, v)
            assert en.mask_of_graph(gd) == int(dm)
        a, b = rng.sample(range(n), 2)
        bit = 1 << en.pair_index(a, b)
        with_edge = masks | bit
        pivoted = en.pivot_masks(with_edge, a, b, n)
        swapped = en.label_swap_masks(with_edge, a, b, n)
        for mask, pm, sm in zip(with_edge, pivoted, swapped):
            g = en.graph_of_mask(n, int(mask))
            assert en.mask_of_graph(pivot(g, a, b)) == int(pm)
            assert en.mask_of_graph(label_swap(g, a, b)) == int(sm)


def test_structure_tables_match_per_graph_functions():
    rng = random.Random(17)
    for n in (2, 4, 6):
        alpha = en.independence_number_table(n)
        comp = en.component_count_table(n)
        edges = en.edge_count_table(n)
        iso = en.isolated_count_table(n)
        for _ in range(150):
            mask = rng.randrange(1 << en.pair_count(n))
            g = en.graph_of_mask(n, mask)
            assert alpha[mask] == independence_number(g)
            assert comp[mask] == component_count(g)
            assert edges[mask] == g.edge_count
            assert iso[mask] == sum(1 for v in range(n) if g.degree(v) == 0)


def test_component_tables_match_graph_components():
    rng = random.Random(19)
    cases = [(n, range(1 << en.pair_count(n))) for n in range(6)]
    cases.append((7, [rng.randrange(1 << 21) for _ in range(2000)]))
    for n, masks in cases:
        masks = np.array(masks, dtype=np.int64)
        count = en.component_count_table(n)
        comp = en.vertex_component_masks(masks, n)
        assert comp.shape == (len(masks), n) and comp.dtype == np.uint8
        for mask, row in zip(map(int, masks), comp.tolist()):
            g = en.graph_of_mask(n, mask)
            expected = component_masks(g)
            assert count[mask] == component_count(g) == len(expected)
            assert row == [next(c for c in expected if c >> v & 1) for v in range(n)]


def test_free_trees():
    counts = [len(en.free_trees(n)) for n in range(1, 11)]
    assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n in (5, 7, 9):
        trees = en.free_trees(n)
        for t in trees:
            assert t.n == n and t.edge_count == n - 1 and is_connected(t)
        # pairwise non-isomorphic: canonical forms are distinct by build,
        # and the isomorphism-invariant q separates most of them
        polys = {interlace_polynomial(t) for t in trees}
        assert len(polys) > len(trees) // 2
