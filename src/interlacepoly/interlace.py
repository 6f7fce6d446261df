"""The one-variable interlace polynomial q(G).

q is the unique graph polynomial with q(E_n) = x^n on edgeless graphs and

    q(G) = q(G - a) + q(G^{ab} - b)        for any edge ab,

where G^{ab} is the pivot.  The value is independent of the pivot edges
chosen; the verification suites re-check that exhaustively on small
orders.  Coefficients are nonnegative integers, q(G;2) = 2^n, the lowest
nonzero degree equals the number of components, and q is multiplicative
over disjoint unions.

The engine takes one step, as ``enumeration._build_level`` does over all
masks of one order: remove the last vertex v of a graph G on 0..k-1.  If
N(v) is empty, q(G) = x q(G - v); otherwise

    q(G) = q(G - v) + q((G - v) + T[N(v), N(b) | b]),   b = min N(v),

where + toggles the complete tripartite graph T on X - Y, Y - X and
X & Y: that is G^{vb} - b with v renamed b.  The step runs on one of two
schedules, chosen by the input's order alone:

* below FRONTIER_MIN_ORDER (12), depth first on Python-int rows, on the
  labels as given, memoized on the exact rows in a plain dict from row
  tuples to packed ints q(G; 2^64), 64-bit lane d holding the degree-d
  coefficient: a sum is +, a factor x << 64.  No lane carries, since
  every lane is a coefficient of q of a real graph, at most 2^(n-1) <
  2^64.  This schedule reads no table, so the tests that compare the
  engine with the tables of ``enumeration`` (all below order 8) compare
  two routes.
* from FRONTIER_MIN_ORDER on, breadth first: a frontier run level by
  level on numpy rows.  The graph is relabeled once in breadth-first
  order from vertex 0, so that the vertices farthest from 0 go first; an
  entry (s, rows, c) stands for c x^s q(G), and one level applies the
  step to every entry at once.  Entries with equal (s, rows) merge by
  summing c, which takes the memo's place.  At order 6 each entry is one
  gather from the order-6 table, and c times its coefficient d adds into
  coefficient s + d.  Every c is at most a coefficient of q(G), so all
  of it stays exact in uint64.

Why the threshold sits at 12: a level is a fixed handful of numpy calls
(about 0.05 ms at order 14), the recursion a Python call per subproblem.
Per graph, the frontier wins from order 11 on dense G(n, 1/2), and from
14-15 on random word graphs and G(n, 0.2); at 12, the suites' small
graphs and words of up to 10 symbols stay on the recursion.  A ``cache``
serves only the recursion: pass one in to share work across calls below
the threshold, one per worker.

Paths are indexed by edge count: path_polynomial(n) is the path with n
edges and n + 1 vertices.
"""

from __future__ import annotations

from typing import MutableMapping, Sequence

import numpy as np

from .enumeration import distinct
from .graphs import (
    Graph,
    TooLargeError,
    _bfs_components,
    _induced_rows,
    _mask_of_rows,
    _toggle_rows,
    complete_graph,
    edgeless_graph,
    relabel,
    substitute,
)
from .polynomials import IntPolynomial

MemoCache = MutableMapping[tuple[int, ...], int]

LANE = 64  # bits per coefficient of a packed value q(G; 2^64)
FRONTIER_MIN_ORDER = 12
LEAF_ORDER = 6  # the frontier's leaves: one gather from the order-6 table
# _merge's key weights, one per entry column: the first outputs of splitmix64
# from seed 0, in uint64 arithmetic, which wraps mod 2^64
_WEIGHTS = np.arange(1, LANE + 2, dtype=np.uint64) * 0x9E3779B97F4A7C15
_WEIGHTS = (_WEIGHTS ^ _WEIGHTS >> 30) * 0xBF58476D1CE4E5B9
_WEIGHTS = (_WEIGHTS ^ _WEIGHTS >> 27) * 0x94D049BB133111EB
_WEIGHTS ^= _WEIGHTS >> 31


def _unpack(value: int, n: int) -> IntPolynomial:
    """The polynomial of a packed value of an order-n graph."""
    return IntPolynomial(value >> LANE * d & (1 << LANE) - 1 for d in range(n + 1))


def _q_rows(rows: tuple[int, ...], memo: MemoCache) -> int:
    """Packed q of the graph with these rows: the step on the last vertex,
    depth first, memoized on the rows.  A call makes at most two calls one
    order down, so an order-k graph takes at most 2^(k+1) - 1 calls."""
    if not rows:
        return 1
    got = memo.get(rows)
    if got is not None:
        return got
    k = len(rows) - 1
    X, full = rows[k], (1 << k) - 1
    rest = tuple(r & full for r in rows[:k])  # G - v
    if X:
        b = X & -X
        Y = rest[b.bit_length() - 1] | b
        res = _q_rows(rest, memo) + _q_rows(_toggle_rows(rest, X, Y), memo)
    else:
        res = _q_rows(rest, memo) << LANE
    memo[rows] = res
    return res


def _bfs_relabel(g: Graph) -> Graph:
    """g with its vertices renamed in breadth-first order from vertex 0,
    each further component from its lowest vertex."""
    perm = [0] * g.n
    for i, v in enumerate(v for comp in _bfs_components(g.rows) for v in comp):
        perm[v] = i
    return relabel(g, perm)


def _merge(entries: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entry rows, each with the sum of its c.  The rows are sorted
    by the key entries @ _WEIGHTS mod 2^64 (np.unique would import numpy.ma),
    and adjacent rows merge only if every column is equal: a key collision can
    only leave a duplicate unmerged, and the leaf sum adds both exactly."""
    order = np.argsort(entries @ _WEIGHTS[: entries.shape[1]])
    entries = entries[order]
    first = np.ones(len(entries), dtype=bool)
    np.any(entries[1:] != entries[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    return entries[starts], np.add.reduceat(c[order], starts)


def _q_frontier(g: Graph) -> IntPolynomial:
    """q(G) by the frontier (see the module docstring), for order > LEAF_ORDER."""
    n = g.n
    # entries[e] = (s, rows of G on 0..k-1) stands for c[e] x^s q(G)
    entries = np.array([[0, *_bfs_relabel(g).rows]], dtype=np.uint64)
    c = np.ones(1, dtype=np.uint64)
    for k in range(n, LEAF_ORDER, -1):
        X = entries[:, k]  # N(v), v = k - 1
        entries = entries[:, :k]
        entries[:, 1:] &= np.uint64((1 << k - 1) - 1)  # G - v
        entries[:, 0] += X == 0  # an isolated v is a factor x
        hit = np.flatnonzero(X)
        X, toggled = X[hit], entries[hit]
        low = X & ~X + 1  # {b}, b = min N(v)
        Y = toggled[np.arange(len(hit)), 1 + np.bitwise_count(low - 1)] | low
        u, t = np.arange(k - 1, dtype=np.uint64), np.empty((len(hit), k - 1), np.uint64)
        for a, b in ((X[:, None], Y[:, None]), (Y[:, None], X[:, None])):
            np.right_shift(a, u, out=t)  # _toggle_rows on every column at once
            t &= 1
            t *= b
            toggled[:, 1:] ^= t
        del t  # before the merge, which sets the level's peak memory
        entries, c = _merge(np.concatenate([entries, toggled]), np.concatenate([c, c[hit]]))
    rows, index = distinct(LEAF_ORDER)
    terms = c[:, None] * rows.astype(np.uint64)[index[_mask_of_rows(entries[:, 1:].T)]]
    coeffs = np.zeros(n + 1, dtype=np.uint64)
    np.add.at(coeffs, entries[:, :1].astype(np.intp) + np.arange(LEAF_ORDER + 1), terms)
    return IntPolynomial(coeffs.tolist())


def interlace_polynomial(g: Graph, cache: MemoCache | None = None) -> IntPolynomial:
    """Compute q(G) exactly by pivot reduction: the memoized recursion below
    order FRONTIER_MIN_ORDER, the frontier from there on.

    The frontier takes dense graphs of order 26 in about half a second,
    and forests and sparse graphs far beyond.  Pass a dict as ``cache`` to
    reuse the recursion's work across calls; the frontier does not read it.
    """
    if g.n >= FRONTIER_MIN_ORDER:
        return _q_frontier(g)
    return _unpack(_q_rows(g.rows, {} if cache is None else cache), g.n)


# -- closed forms ----------------------------------------------------------


def edgeless_polynomial(n: int) -> IntPolynomial:
    """q(E_n) = x^n, n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return IntPolynomial.monomial(n)


def complete_polynomial(n: int) -> IntPolynomial:
    """q(K_n) = 2^(n-1) x, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return IntPolynomial((0, 2 ** (n - 1)))


def star_polynomial(n: int) -> IntPolynomial:
    """q(K_{1,n}) = 2x + x^2 + ... + x^n, n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2 (use complete_polynomial(2) for K_2)")
    return IntPolynomial((0, 2) + (1,) * (n - 1))


def complete_bipartite_polynomial(m: int, n: int) -> IntPolynomial:
    """q(K_{m,n}) = (1+...+x^(m-1))(1+...+x^(n-1)) + x^m + x^n - 1, m,n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    ones_m = IntPolynomial((1,) * m)
    ones_n = IntPolynomial((1,) * n)
    return (
        ones_m * ones_n
        + IntPolynomial.monomial(m)
        + IntPolynomial.monomial(n)
        - IntPolynomial.one()
    )


def path_polynomial(n: int) -> IntPolynomial:
    """q of the path with n edges (n + 1 vertices), n >= 0.

    Satisfies q(P_n) = q(P_{n-1}) + x q(P_{n-2}) with q(P_0) = x and
    q(P_1) = 2x; evaluating at 1 yields the Fibonacci number F_{n+2}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = IntPolynomial.x(), IntPolynomial((0, 2))  # q(P_0), q(P_1)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, cur + prev.mul_x()
    return cur


def cycle_polynomial(n: int) -> IntPolynomial:
    """q(C_n) for n >= 3, by integer power sums.

    With a + b = 1 and ab = -x, the power sums p_k = a^k + b^k obey
    p_k = p_{k-1} + x p_{k-2}, p_0 = 2, p_1 = 1, and

        q(C_n) = p_n + (x^2 - 2x - 1)   for n even,
        q(C_n) = p_n + (x - 1)          for n odd.

    No symbolic square roots are needed; everything stays in Z[x].
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    prev, cur = IntPolynomial((2,)), IntPolynomial.one()  # p_0, p_1
    for _ in range(n - 1):
        prev, cur = cur, cur + prev.mul_x()
    corr = (-1, -2, 1) if n % 2 == 0 else (-1, 1)
    return cur + IntPolynomial(corr)


def complete_multipartite_polynomial(parts: Sequence[int]) -> IntPolynomial:
    """q of the complete multipartite graph with the given part sizes.

    For parts k_1..k_r (each >= 1),

        q = (x/2) prod_i (2 + x + ... + x^(k_i-1))
            + (-1)^r (1 - x/2) prod_i (x + ... + x^(k_i-1)).

    The halves always cancel to integers; that evenness is asserted.
    """
    if not parts or any(k < 1 for k in parts):
        raise ValueError("need r >= 1 parts, each >= 1")
    r = len(parts)
    prod_a = IntPolynomial.one()
    prod_b = IntPolynomial.one()
    for k in parts:
        prod_a = prod_a * IntPolynomial((2,) + (1,) * (k - 1))
        prod_b = prod_b * IntPolynomial((0,) + (1,) * (k - 1))
    sign = 1 if r % 2 == 0 else -1
    # 2 q = x * prod_a + sign * (2 - x) * prod_b
    twice = IntPolynomial((0, 1)) * prod_a + IntPolynomial((2, -1)).scale(sign) * prod_b
    assert all(c % 2 == 0 for c in twice.coeffs), "numerator must be even"
    return IntPolynomial(c // 2 for c in twice.coeffs)


# -- substitution, duplication, multiplication, rotation -------------------


def solid_graph(template: Graph, sizes: Sequence[int]) -> Graph:
    """Substitute complete graphs of the given sizes for the vertices."""
    return substitute(template, [complete_graph(k) for k in sizes])


def thick_graph(template: Graph, sizes: Sequence[int]) -> Graph:
    """Substitute edgeless graphs of the given sizes for the vertices."""
    return substitute(template, [edgeless_graph(k) for k in sizes])


def clique_substitution_polynomial(
    template_q: IntPolynomial, size_delta: int
) -> IntPolynomial:
    """q of a solid graph from its template's q: substituting cliques for
    vertices scales q by 2^(added vertex count)."""
    if size_delta < 0:
        raise ValueError("size_delta must be >= 0")
    return template_q.scale(2**size_delta)


def vertex_duplication_polynomial(
    q_g: IntPolynomial, q_g_minus_a: IntPolynomial
) -> IntPolynomial:
    """q(G with vertex a duplicated) = (1+x) q(G) - x q(G-a)."""
    return IntPolynomial((1, 1)) * q_g - q_g_minus_a.mul_x()


VERTEX_MULTIPLICATION_MAX_ORDER = 14


def vertex_multiplication_polynomial(
    g: Graph,
    multiplicities: Sequence[int],
    cache: MemoCache | None = None,
) -> IntPolynomial:
    """q of G with vertex i replaced by k_i independent copies.

    Expands over the 2^n induced subgraphs of G:

        q(G[k_1..k_n]) = sum over L in {0,1}^n of
            (-1)^(n + |L|) q(G[L]) prod_i S_i(L_i)

    where S_i(1) = 1 + x + ... + x^(k_i - 1) and S_i(0) = x + ... +
    x^(k_i - 1), and G[L] is the induced subgraph on {i : L_i = 1}.
    """
    if len(multiplicities) != g.n:
        raise ValueError("need one multiplicity per vertex")
    if any(k < 1 for k in multiplicities):
        raise ValueError("multiplicities must be >= 1")
    if g.n > VERTEX_MULTIPLICATION_MAX_ORDER:
        raise TooLargeError(
            f"order {g.n} exceeds {VERTEX_MULTIPLICATION_MAX_ORDER} "
            "(2^n induced-subgraph expansion)"
        )
    if cache is None:
        cache = {}
    n = g.n
    total = IntPolynomial.zero()
    # _q_rows, not interlace_polynomial: its step removes the last vertex v
    # of L, and G[L] - v is G[L - v], so one memo serves all 2^n subsets;
    # interlace_polynomial would send orders >= 12 to the memo-free frontier
    for subset in range(1 << n):
        sub_rows = _induced_rows(g.rows, subset)
        term = _unpack(_q_rows(sub_rows, cache), len(sub_rows))
        for i in range(n):
            k = multiplicities[i]
            if subset >> i & 1:
                factor = IntPolynomial((1,) * k)
            else:
                factor = IntPolynomial((0,) + (1,) * (k - 1))
            term = term * factor
            if term.is_zero():
                break
        if (n + subset.bit_count()) % 2:
            term = -term
        total = total + term
    return total


def rotate(g: Graph, u: int, v: int) -> Graph:
    """Build the partner H of the rotation pair (G, H).

    H is G with the uv relation toggled, plus a fresh degree-1 vertex w
    adjacent only to u.  For every x >= 1, q(G; x) <= q(H; x).
    """
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"invalid vertex pair ({u},{v})")
    rows = list(g.rows) + [1 << u]
    rows[u] ^= 1 << v | 1 << g.n
    rows[v] ^= 1 << u
    return Graph.from_rows(rows)
