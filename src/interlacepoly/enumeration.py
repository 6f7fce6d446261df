"""Exhaustive labeled-graph enumeration and vectorized coefficient tables.

A labeled graph of order n is encoded as a C(n,2)-bit mask over vertex
pairs, bit position pair_index(i, j) = C(j,2) + i for i < j: the pair mask
of ``graphs``, whose graph6 body is the same bits.  All 2^C(n,2) graphs of one
order live in a single numpy array, and the interlace polynomial of every
one of them is computed by a bottom-up sweep of the pivot reduction

    q(G) = q(G - v) + q(G^{vb} - b)

on the last vertex v: G - v is the low bits of the mask, and N(v), its
high bits, splits the masks into contiguous blocks, so each order is one
pass over the previous order's table.  Each graph's polynomial is one
packed word q(G;256), a uint64 with a byte per coefficient, and row-wise
checks run once per distinct polynomial.  That is what makes exhaustive
identity checking over all 2,097,152 graphs of order 7 a minutes-scale job
instead of an hours-scale one.  Each order's distinct words, every mask's
index into them and the component counts are built once per process,
under one lock, and every caller reads the same read-only arrays.

The mask-level operations (pivot, the component of each vertex) and the
per-graph structure tables (independence number, component count, edge
count, isolated vertices) are all vectorized over mask arrays as well.
The pivot, the sweep's block toggles and the stars read one table per order:
the complete tripartite graph on X - Y, Y - X and X & Y, for all X and Y.
Every relabeling (vertex deletion, label swap, disjoint-union shift) and
the neighbour sets are bit maps, each compiled once into one 256-entry
table per source byte and applied as one gather and OR per byte.

Orders above 7 are rejected: the order-8 table alone would hold 2^28
rows.  Use the recursive engine for individual larger graphs.
"""

from __future__ import annotations

import threading
from functools import lru_cache, reduce
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, TooLargeError, _mask_of_rows, _rows_of_mask

TABLE_MAX_ORDER = 7
WORD = np.dtype("<u8")  # a packed word: byte d is its degree-d coefficient


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int) -> int:
    """Bit position of the vertex pair {i, j}, i < j, in the mask encoding."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def mask_of_graph(g: Graph) -> int:
    return _mask_of_rows(g.rows)


def graph_of_mask(n: int, mask: int) -> Graph:
    if not 0 <= mask < 1 << pair_count(n):
        raise ValueError(f"mask {mask} out of range for order {n}")
    return Graph.from_rows(_rows_of_mask(n, mask))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph of order n exactly once, in mask order."""
    for mask in range(1 << pair_count(n)):
        yield graph_of_mask(n, mask)


# -- vectorized mask operations --------------------------------------------


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def induced_pair_masks(n: int) -> np.ndarray:
    """K[S]: ``table[s]`` is the mask of the vertex pairs inside the vertex
    set s (a bitmask over range(n)), i.e. of the complete graph on s.
    Built once per order and shared, so the table is read-only."""
    subsets = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(1 << n, dtype=np.int64)
    for i, j in combinations(range(n), 2):
        table |= (subsets >> i & subsets >> j & 1) << pair_index(i, j)
    return _read_only(table)


@lru_cache(maxsize=None)
def tripartite_toggles(n: int) -> np.ndarray:
    """``T[X, Y]`` is the mask of the complete tripartite graph on the
    vertex sets X - Y, Y - X and X & Y, for all X, Y over range(n): K[X | Y]
    with K of each class XORed out.  Built once per order, read-only."""
    K = induced_pair_masks(n)
    X, Y = np.arange(1 << n)[:, None], np.arange(1 << n)
    return _read_only(K[X | Y] ^ K[X & ~Y] ^ K[Y & ~X] ^ K[X & Y])


@lru_cache(maxsize=None)
def _byte_tables(bit_map: tuple, dtype: np.dtype) -> np.ndarray:
    """Compile a bit map (``bit_map[s]``: source bit s's destination, or None)
    into read-only tables: entry x of table c maps byte c of a mask."""
    if max((d for d in bit_map if d is not None), default=0) >= 8 * dtype.itemsize:
        raise ValueError(f"a destination bit does not fit in {dtype}")
    byte = np.arange(256, dtype=dtype)
    tables = np.zeros((-(-len(bit_map) // 8), 256), dtype=dtype)
    for s, d in enumerate(bit_map):
        if d is not None:
            tables[s // 8] |= (byte >> s % 8 & 1) << d
    tables.flags.writeable = False
    return tables


def _gather_bytes(masks: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Apply compiled tables to every mask: the OR over c of
    tables[c][byte c], read through a view of the masks' bytes."""
    data = np.ascontiguousarray(masks, dtype=masks.dtype.newbyteorder("<"))
    data = data.view(np.uint8).reshape(*masks.shape, masks.itemsize)
    if not len(tables):
        return np.zeros(masks.shape, dtype=tables.dtype)
    out = np.take(tables[0], data[..., 0])  # an OR into np.zeros costs a pass
    for c in range(1, len(tables)):
        out |= np.take(tables[c], data[..., c])
    return out


def relabel_masks(masks: np.ndarray, image: Sequence, n: int) -> np.ndarray:
    """Masks of the graphs (order n) with vertex x renamed image[x], or
    deleted where image[x] is None: the mask-level twin of graphs.relabel."""
    ends = [(image[i], image[j]) for j in range(n) for i in range(j)]  # bit order
    bit_map = tuple(None if None in e else pair_index(*e) for e in ends)
    return _gather_bytes(masks, _byte_tables(bit_map, masks.dtype))


def neighbor_sets(masks: np.ndarray, v: int, n: int) -> np.ndarray:
    """N(v), as a uint8 vertex bitmask, in each graph of masks (order n):
    the bit map sending each pair {u, v} to bit u."""
    pairs = [(i, j) for j in range(n) for i in range(j)]  # bit order
    bit_map = tuple(i + j - v if v in (i, j) else None for i, j in pairs)
    return _gather_bytes(masks, _byte_tables(bit_map, np.dtype(np.uint8)))


def delete_vertex_masks(masks: np.ndarray, v: int, n: int) -> np.ndarray:
    """Masks of G - v (order n-1, compacted labels) for an array of masks."""
    return relabel_masks(masks, [None if x == v else x - (x > v) for x in range(n)], n)


def pivot_masks(masks: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Masks of the pivot G^{ab}; callers must ensure bit ab is set.

    The pivot toggles the complete tripartite graph on the vertices other
    than a and b that see a only, b only, and both.
    """
    na, nb = neighbor_sets(masks, a, n), neighbor_sets(masks, b, n)
    return masks ^ tripartite_toggles(n)[na ^ 1 << b, nb ^ 1 << a]


def label_swap_masks(masks: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Masks of G with vertices a and b exchanged."""
    return relabel_masks(masks, [{a: b, b: a}.get(x, x) for x in range(n)], n)


# -- the coefficient table ---------------------------------------------------


# The per-process tables by order, each built once by _extend: _LEVELS[k] is
# (the distinct words u, every mask's index into u), _COMPONENTS[k] the counts.
_LOCK = threading.Lock()
_LEVELS = [(_read_only(np.ones(1, dtype=WORD)), _read_only(np.zeros(1, np.intp)))]
_COMPONENTS = [_read_only(np.zeros(1, dtype=np.int8))]


def _extend(store: list, build, n: int):
    """``store[n]``, after appending ``build(k)`` for each missing order k."""
    with _LOCK:
        while len(store) <= n:
            store.append(build(len(store)))
    return store[n]


def _build_level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-k distinct words u, increasing, and every mask's index into
    them, by the reduction on the last vertex v, one block of masks per
    S = N(v): x q(G - v) if S = 0, else q(G - v) + q(G^{vb} - b), b = min S.
    With v named b, G^{vb} - b is G - v with the tripartite toggle
    T[S, N(b) | b] applied.  A mask's key is the pair of order-(k-1) rows it
    adds, and each key that occurs is summed once."""
    n, (prev_u, prev_index) = k - 1, _LEVELS[k - 1]
    d = len(prev_u)
    assert d * d + d < 1 << 16, "the keys must fit uint16"
    low = np.arange(len(prev_index), dtype=np.int64)
    toggle = tripartite_toggles(n)
    N = [neighbor_sets(low, b, n) for b in range(n)]  # N(b) in G - v
    row = prev_index.astype(np.uint16)
    key = np.empty((1 << n, len(low)), dtype=np.uint16)
    key[0] = d * d + row
    for s in range(1, 1 << n):
        b = s & -s
        key[s] = row * d + row[low ^ toggle[s][N[b.bit_length() - 1] | b]]
    sums = np.concatenate([(prev_u[:, None] + prev_u).ravel(), prev_u << 8])  # by key
    occurring = sums[np.bincount(key.ravel(), minlength=len(sums)) > 0]
    u = np.array(sorted(set(occurring.tolist())), dtype=WORD)  # np.unique imports numpy.ma
    return _read_only(u), _read_only(np.searchsorted(u, sums)[key.ravel()])


class CoefficientTable:
    """Interlace polynomials of all labeled graphs of orders 0..n_max.

    ``words(k)[mask]`` is q(G;256) for the order-k graph encoded by mask:
    a little-endian uint64 whose byte d is the degree-d coefficient.  This
    is exact: q(G;2) = 2^k and c_d >= 0 bound c_d <= 2^(k-d) <= 128, so the
    sum of two words, or the product for two orders summing to <= 7, never
    carries.  The 2^21 order-7 graphs have only 112 distinct polynomials;
    every row-wise function of q runs once per distinct polynomial
    (``distinct(k)``) and is gathered back to the masks.  ``table(k)`` is
    the int64 array of shape (2^C(k,2), k+1) of the same coefficients.

    Each order keeps its distinct words and every mask's index into them,
    built once per process and shared read-only; ``words(k)`` is gathered
    through the index.  An instance answers for orders 0..n_max only.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError(f"order must be at least 0, got {n_max}")
        if n_max > TABLE_MAX_ORDER:
            raise TooLargeError(
                f"coefficient tables stop at order {TABLE_MAX_ORDER}"
            )
        self.n_max = n_max
        _extend(_LEVELS, _build_level, n_max)

    def _level(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"order must be in 0..{self.n_max}, got {n}")
        return _LEVELS[n]

    def words(self, n: int) -> np.ndarray:
        u, index = self._level(n)
        return u[index]

    def distinct(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, index): the distinct order-n polynomials as int64 rows, in
        increasing word order, read from the words' bytes, and for every mask
        the row of its polynomial, so q(mask) = rows[index[mask]]."""
        u, index = self._level(n)
        return u.view(np.uint8).reshape(-1, 8)[:, : n + 1].astype(np.int64), index

    def table(self, n: int) -> np.ndarray:
        rows, index = self.distinct(n)
        return rows[index]

    def evaluate(self, n: int, x0: int) -> np.ndarray:
        """q(G; x0) for every order-n graph, as a vector over masks."""
        rows, index = self.distinct(n)
        powers = np.array([x0**d for d in range(n + 1)], dtype=np.int64)
        return (rows @ powers)[index]

    def degrees(self, n: int) -> np.ndarray:
        rows, index = self.distinct(n)
        nz = rows != 0
        assert nz.any(axis=1).all(), "q is never the zero polynomial"
        return (n - np.argmax(nz[:, ::-1], axis=1))[index]

    def lowest_degrees(self, n: int) -> np.ndarray:
        rows, index = self.distinct(n)
        return np.argmax(rows != 0, axis=1)[index]

    def nonzero_term_counts(self, n: int) -> np.ndarray:
        rows, index = self.distinct(n)
        return (rows != 0).sum(axis=1)[index]


# -- vectorized structure tables ---------------------------------------------


def edge_count_table(n: int) -> np.ndarray:
    masks = np.arange(1 << pair_count(n), dtype=np.uint64)
    return np.bitwise_count(masks).astype(np.int64)


def incident_bits(n: int, v: int) -> int:
    """The mask of the pairs that hold v: the star from v to the rest."""
    return int(tripartite_toggles(n)[1 << v, (1 << n) - 1 ^ 1 << v])


def isolated_count_table(n: int) -> np.ndarray:
    masks = np.arange(1 << pair_count(n), dtype=np.int64)
    count = np.zeros(len(masks), dtype=np.int8)
    for v in range(n):
        count += (masks & incident_bits(n, v)) == 0
    return count


def independence_number_table(n: int) -> np.ndarray:
    """alpha(G) for every order-n graph, order by order on the last vertex
    v: max(alpha(G - v), 1 + alpha(G - N[v])).  A mask's low bits are G - v
    and its high bits N(v); G - N[v] is read as G - v with N(v) joined to
    every vertex, which keeps alpha of the rest, or as 0 if N[v] is all."""
    alpha = np.zeros(1, dtype=np.int8)
    for k in range(1, n + 1):
        low_bits, full = pair_count(k - 1), (1 << k - 1) - 1
        masks = np.arange(1 << pair_count(k), dtype=np.int64)
        low = masks & (1 << low_bits) - 1
        rest = full ^ masks >> low_bits
        K = induced_pair_masks(k - 1)
        joined = alpha[low | K[full] ^ K[rest]]
        alpha = np.maximum(alpha[low], 1 + np.where(rest != 0, joined, 0))
    return alpha


def vertex_component_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """``out[k, v]`` is the uint8 vertex mask of v's component in the graph
    masks[k] of order n <= TABLE_MAX_ORDER: the rows N(v) | {v}, bytes of
    one word gathered per source byte (pair {i, j} sets bit i of byte j and
    bit j of byte i), closed by Warshall's algorithm in n in-place steps."""
    pairs = [(i, j) for j in range(n) for i in range(j)]  # bit order
    up, down = (
        _byte_tables(tuple(8 * b + a for a, b in ends), WORD)
        for ends in (pairs, [(j, i) for i, j in pairs])
    )
    words = _gather_bytes(masks, up | down) | sum(1 << 9 * v for v in range(n))
    reach = np.ascontiguousarray(words.view(np.uint8).reshape(-1, 8)[:, :n].T)
    for u in range(n):
        reach |= -(reach >> u & 1) & reach[u]
    return reach.T


def _component_level(k: int) -> np.ndarray:
    n = k - 1  # one block per S = N(v), as in _build_level
    comp = vertex_component_masks(np.arange(1 << pair_count(n), dtype=np.int64), n)
    root = comp & -comp  # the lowest vertex of each vertex's component
    S = np.arange(1 << n, dtype=np.uint8)[:, None]
    met = reduce(np.bitwise_or, (root[:, u] & -(S >> u & 1) for u in range(n)), np.uint8(0))
    return _read_only((_COMPONENTS[n] + 1 - np.bitwise_count(met).view(np.int8)).ravel())


def component_count_table(n: int) -> np.ndarray:
    """Number of connected components of every order-n graph, by order on the
    last vertex v: c(G - v) + 1 - the number of components of G - v that N(v)
    meets, counted by their lowest vertices.  Every order up to n is built
    once per process, and read-only."""
    return _extend(_COMPONENTS, _component_level, n)


def lowest_in_component(comp: np.ndarray) -> np.ndarray:
    """True where v is the lowest vertex of its component mask comp[k, v]."""
    return (comp & -comp) == 1 << np.arange(comp.shape[1], dtype=np.uint8)


# -- unlabeled free trees ----------------------------------------------------


def _rooted_canonical(adj: list[set[int]], root: int, parent: int) -> tuple:
    children = sorted(
        _rooted_canonical(adj, u, root) for u in adj[root] if u != parent
    )
    return tuple(children)


def _tree_centers(adj: list[set[int]]) -> list[int]:
    n = len(adj)
    if n == 1:
        return [0]
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    removed = 0
    while n - removed > 2:
        removed += len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
            degree[v] = 0
        layer = nxt
    return layer


def _canonical_form(g: Graph) -> tuple:
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    return min(_rooted_canonical(adj, c, -1) for c in _tree_centers(adj))


def _graph_from_form(form: tuple) -> Graph:
    edges = []

    def build(f, parent):
        me = build.counter
        build.counter += 1
        if parent >= 0:
            edges.append((parent, me))
        for child in f:
            build(child, me)
        return me

    build.counter = 0
    build(form, -1)
    return Graph(build.counter, edges)


def free_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Grown by leaf attachment with canonical-form deduplication; fine for
    the n <= 10 this library sweeps (there are 106 trees at n = 10).
    """
    if n < 1:
        return []
    forms = {(): None}
    for _ in range(n - 1):
        nxt = {}
        for form in forms:
            g = _graph_from_form(form)
            for v in range(g.n):
                bigger = Graph(g.n + 1, list(g.edges()) + [(v, g.n)])
                nxt[_canonical_form(bigger)] = None
        forms = nxt
    return [_graph_from_form(f) for f in forms]
