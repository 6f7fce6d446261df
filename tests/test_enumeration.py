"""Tests for the vectorized enumeration engine.

The coefficient tables are a second, independent route to q (bottom-up
mask sweeps vs. the memoized top-down recursion); these tests pin the
two routes to each other and the mask-level operations to the
object-level ones.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from itertools import compress, permutations
from pathlib import Path

import numpy as np
import pytest

from interlacepoly import enumeration as en
from interlacepoly.graphs import (
    Graph,
    TooLargeError,
    _toggle_rows,
    component_count,
    component_masks,
    delete_vertex,
    disjoint_union,
    edgeless_graph,
    independence_number,
    induced_subgraph,
    is_connected,
    label_swap,
    pivot_brute,
    relabel,
)
from interlacepoly.interlace import interlace_polynomial

TABLE_6_SHA256 = "d11de5658566c695e761fb3819bb73180497cc7ab1d95080cdaaa06463fa03e2"
TABLE_7_SHA256 = "e3a2d232aabd240e2d23daf1cf7bd4d01dc0ded52b23145ffe8830542bf56d69"


def test_pair_index_roundtrip():
    seen = set()
    for j in range(8):
        for i in range(j):
            b = en.pair_index(i, j)
            assert en.pair_index(j, i) == b
            seen.add(b)
    assert seen == set(range(en.pair_count(8)))


def test_mask_graph_roundtrip():
    rng = random.Random(5)
    for n in range(8):
        for _ in range(20):
            mask = rng.randrange(1 << en.pair_count(n))
            g = en.graph_of_mask(n, mask)
            assert en.mask_of_graph(g) == mask
        for mask in (-1, 1 << en.pair_count(n)):
            with pytest.raises(ValueError, match="out of range"):
                en.graph_of_mask(n, mask)


def test_all_graphs_counts():
    assert sum(1 for _ in en.all_graphs(3)) == 8
    assert sum(1 for _ in en.all_graphs(4)) == 64
    connected = list(filter(is_connected, en.all_graphs(4)))
    assert len(connected) == 38  # labeled connected graphs on 4 vertices


def test_table_matches_recursion_exhaustively():
    cache: dict = {}
    for n in range(5):
        rows = en.coefficient_table(n)
        for mask in range(1 << en.pair_count(n)):
            g = en.graph_of_mask(n, mask)
            expected = interlace_polynomial(g, cache).coeffs
            row = tuple(int(c) for c in rows[mask])
            assert row[: len(expected)] == expected
            assert all(c == 0 for c in row[len(expected) :])


def test_table_matches_recursion_sampled_orders_5_to_7():
    cache: dict = {}
    rng = random.Random(11)
    for n in (5, 6, 7):
        rows = en.coefficient_table(n)
        for _ in range(120):
            mask = rng.randrange(1 << en.pair_count(n))
            g = en.graph_of_mask(n, mask)
            expected = interlace_polynomial(g, cache).coeffs
            row = tuple(int(c) for c in rows[mask])
            assert row[: len(expected)] == expected
            assert all(c == 0 for c in row[len(expected) :])
    digest = hashlib.sha256(en.coefficient_table(7).tobytes()).hexdigest()
    assert digest == TABLE_7_SHA256


def test_packed_words_hold_the_coefficient_rows():
    """Byte d of the q(G;256) word is the degree-d coefficient, every
    coefficient stays within the no-carry bound 2^(k-d), and the distinct
    rows gathered through the index give the table."""
    for k in range(8):
        words = en.words(k)
        rows, index = en.distinct(k)
        T = en.coefficient_table(k)
        assert words.dtype == np.dtype("<u8") and T.dtype == np.int64
        assert T.shape == (1 << en.pair_count(k), k + 1)
        packed = words.view(np.uint8).reshape(-1, 8)
        for d in range(8):
            if d <= k:
                assert (packed[:, d] == T[:, d]).all()
                assert (packed[:, d] <= 2 ** (k - d)).all()
            else:
                assert not packed[:, d].any()
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert (rows[index] == T).all()


def test_distinct_rows_are_the_sorted_words_and_their_ranks():
    """The build keys each mask by the pair of rows it adds; its rows and
    index equal those of one sort and search over the words."""
    for k in range(8):
        words = en.words(k)
        u = np.unique(words)
        index = np.searchsorted(u, words)
        rows = u.view(np.uint8).reshape(-1, 8)[:, : k + 1].astype(np.int64)
        got_rows, got_index = en.distinct(k)
        assert got_rows.dtype == rows.dtype and got_index.dtype == index.dtype
        assert np.array_equal(got_rows, rows) and np.array_equal(got_index, index)


def test_table_order_cap():
    """Every reader of the tables answers orders 0..7 and rejects the rest,
    the shared levels already built to order 7 or not."""
    readers = (
        en.words, en.distinct, en.coefficient_table, lambda n: en.evaluate(n, 2),
        en.degrees, en.lowest_degrees, en.nonzero_term_counts,
        en.component_count_table, en.edge_count_table, en.isolated_count_table,
        en.independence_number_table,
    )
    for read in readers:
        with pytest.raises(TooLargeError, match="order 8 exceeds 7, the largest"):
            read(8)
        with pytest.raises(ValueError, match="order must be at least 0, got -1"):
            read(-1)
        for k in range(8):  # one entry per mask; distinct gives (rows, index)
            out = read(k)
            assert len(out[1] if isinstance(out, tuple) else out) == 1 << en.pair_count(k)


def test_table_order_6_bytes_are_pinned():
    digest = hashlib.sha256(en.coefficient_table(6).tobytes()).hexdigest()
    assert digest == TABLE_6_SHA256


def _run_fresh(*parts: str) -> str:
    """Standard output of a script, its parts dedented and joined, run in a
    fresh interpreter on src."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(map(textwrap.dedent, parts))], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_shared_tables_are_read_only():
    """Each order stores one (distinct words, index, component counts)
    triple; the per-mask words are gathered through the index on read."""
    en.words(7)
    for k in range(8):
        u, index, comp = en._LEVELS[k]
        assert en.distinct(k)[1] is index and en.component_count_table(k) is comp
        assert np.array_equal(en.words(k), u[index])
        shared = (u, index, comp, en.tripartite_toggles(k))
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


SUITE_CALLS = (
    "suites.run_extremal_suite(6)",
    "suites.run_conjecture_suite(6, random_samples=0)",
    "suites.run_identity_suite(5, word_samples=0)",
    "suites.run_orbit_suite(4)",
)
DIGEST_SCRIPT = """
    import hashlib, json
    from interlacepoly import enumeration as en, suites

    def digest(report):
        data = report.to_json_dict()
        data.pop("elapsed_ms")
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()
"""


def test_every_level_is_built_once_per_process():
    """One process builds each order's words once, however many tables and
    suites read them, and the suites report as they do run alone."""
    together = json.loads(_run_fresh(DIGEST_SCRIPT, f"""
        from collections import Counter

        built = {{"words": Counter(), "components": Counter()}}

        def counting(name, build):
            def counted(k):
                built[name][k] += 1
                return build(k)
            return counted

        en._build_level = counting("words", en._build_level)
        en._component_level = counting("components", en._component_level)
        en.words(7)
        en.distinct(5)
        en.component_count_table(7)
        digests = [digest(call) for call in ({", ".join(SUITE_CALLS)},)]
        shared = [en.component_count_table(n) is en.component_count_table(n)
                  for n in range(8)]
        print(json.dumps({{"built": built, "digests": digests, "shared": shared}}))
    """))
    once = {str(k): 1 for k in range(1, 8)}
    assert together["built"] == {"words": once, "components": once}
    assert all(together["shared"])
    alone = [_run_fresh(DIGEST_SCRIPT, f"print(digest({call}))").strip()
             for call in SUITE_CALLS]
    assert together["digests"] == alone


def test_concurrent_first_builds_agree_with_the_pins():
    out = _run_fresh("""
        import hashlib, sys, threading
        from interlacepoly import enumeration as en

        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        start, tables = threading.Barrier(2), {}

        def build(n):
            start.wait()
            tables[n] = en.coefficient_table(n)

        threads = [threading.Thread(target=build, args=(n,)) for n in (6, 7)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        print(len(en._LEVELS))
        for n in (6, 7):
            print(hashlib.sha256(tables[n].tobytes()).hexdigest())
    """)
    assert out.split() == ["8", TABLE_6_SHA256, TABLE_7_SHA256]


def _check_mask_operations(n, masks):
    graphs = [en.graph_of_mask(n, int(m)) for m in masks]
    rng = random.Random(n)
    perm = rng.sample(range(n), n)
    gone = set(rng.sample(range(n), min(n, 2)))
    keep = [v for v in range(n) if v not in gone]
    compact = [None if v in gone else keep.index(v) for v in range(n)]
    cases = [
        (perm, n, lambda g: relabel(g, perm)),
        (compact, len(keep), lambda g: induced_subgraph(g, keep)),
        (range(1, n + 1), n + 1, lambda g: disjoint_union(edgeless_graph(1), g)),
    ]
    for image, order, expected in cases:
        relabeled = en.relabel_masks(masks, image, n)
        assert relabeled.dtype == masks.dtype
        for g, rm in zip(graphs, relabeled):
            h = expected(g)
            assert h.n == order and en.mask_of_graph(h) == rm
    for v in range(n):
        deleted = en.delete_vertex_masks(masks, v, n)
        neighbors = en.neighbor_sets(masks, v, n)
        assert deleted.dtype == masks.dtype and neighbors.dtype == np.uint8
        for g, dm, nv in zip(graphs, deleted, neighbors):
            assert en.mask_of_graph(delete_vertex(g, v)) == dm
            assert nv == sum(1 << u for u in g.neighbors(v))
    for a, b in permutations(range(n), 2):
        swapped = en.label_swap_masks(masks, a, b, n)
        assert swapped.dtype == masks.dtype
        for g, sm in zip(graphs, swapped):
            assert en.mask_of_graph(label_swap(g, a, b)) == sm
        has_ab = (masks >> en.pair_index(a, b) & 1) == 1
        pivoted = en.pivot_masks(masks[has_ab], a, b, n)
        for g, pm in zip(compress(graphs, has_ab), pivoted):
            assert en.mask_of_graph(pivot_brute(g, a, b)) == pm


def test_mask_operations_match_graph_operations():
    """Every mask of order <= 5 and seeded order-7 samples, against the
    object-level operations and the four-class pivot oracle."""
    for n in range(6):
        _check_mask_operations(n, np.arange(1 << en.pair_count(n), dtype=np.int64))
    rng = random.Random(13)
    masks = [rng.randrange(1 << en.pair_count(7)) for _ in range(200)]
    _check_mask_operations(7, np.array(masks, dtype=np.int64))
    _check_mask_operations(7, np.array(masks, dtype=np.uint32))
    with pytest.raises(ValueError, match="does not fit in uint32"):
        en.relabel_masks(np.array(masks, dtype=np.uint32), range(2, 9), 7)


def test_tripartite_toggles_match_a_pair_by_pair_construction():
    """T[X, Y] holds pair {i, j} iff i and j lie in two different classes
    among X - Y, Y - X and X & Y, at every order <= 7 and every (X, Y)."""
    for n in range(8):
        X, Y = np.arange(1 << n)[:, None], np.arange(1 << n)
        cls = [(X >> v & 1) + 2 * (Y >> v & 1) for v in range(n)]  # 0: in neither
        expected = np.zeros((1 << n, 1 << n), dtype=np.int64)
        for j in range(n):
            for i in range(j):
                apart = (cls[i] != 0) & (cls[j] != 0) & (cls[i] != cls[j])
                expected |= apart.astype(np.int64) << en.pair_index(i, j)
        assert np.array_equal(en.tripartite_toggles(n), expected), n


def test_row_toggle_is_the_mask_toggle():
    """One T in two representations: ``graphs._toggle_rows`` on rows gives
    the mask XORed with T[X, Y], for every graph of order <= 4 and every
    (X, Y), and for seeded graphs and sets at orders 5-7."""
    for n in range(5):
        T = en.tripartite_toggles(n)
        for g in en.all_graphs(n):
            mask = en.mask_of_graph(g)
            for X in range(1 << n):
                for Y in range(1 << n):
                    got = en.mask_of_graph(Graph.from_rows(_toggle_rows(g.rows, X, Y)))
                    assert got == mask ^ T[X, Y], (g, X, Y)
    rng = random.Random(17)
    for n in (5, 6, 7):
        T = en.tripartite_toggles(n)
        for _ in range(300):
            g = en.graph_of_mask(n, rng.randrange(1 << en.pair_count(n)))
            X, Y = rng.randrange(1 << n), rng.randrange(1 << n)
            got = en.mask_of_graph(Graph.from_rows(_toggle_rows(g.rows, X, Y)))
            assert got == en.mask_of_graph(g) ^ T[X, Y], (g, X, Y)


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
    # alpha on every mask of order <= 5 (K_n among them) and sampled at 7
    cases = [(n, range(1 << en.pair_count(n))) for n in range(6)]
    cases.append((7, [rng.randrange(1 << 21) for _ in range(2000)]))
    for n, masks in cases:
        alpha = en.independence_number_table(n)
        assert alpha.shape == (1 << en.pair_count(n),)
        for mask in masks:
            assert alpha[mask] == independence_number(en.graph_of_mask(n, mask)), (n, mask)


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


def test_component_counts_match_the_closure_on_every_mask():
    """The recursion on the last vertex against the Warshall closure of
    each mask's vertex components, on every mask of every order <= 7."""
    for n in range(8):
        masks = np.arange(1 << en.pair_count(n), dtype=np.int64)
        closure = en.lowest_in_component(en.vertex_component_masks(masks, n))
        assert np.array_equal(en.component_count_table(n), closure.sum(axis=1))


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
