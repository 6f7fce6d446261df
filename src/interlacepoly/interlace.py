"""The one-variable interlace polynomial q(G).

q is the unique graph polynomial with q(E_n) = x^n on edgeless graphs and

    q(G) = q(G - a) + q(G^{ab} - b)        for any edge ab,

where G^{ab} is the pivot.  The value is independent of the pivot edges
chosen; the verification suites re-check that exhaustively on small
orders.  Coefficients are nonnegative integers, q(G;2) = 2^n, the lowest
nonzero degree equals the number of components, and q is multiplicative
over disjoint unions.

The recursion here is exponential but heavily pruned:

* the graph is split into components first: each isolated vertex
  contributes a factor x, and the other components are computed
  independently and their polynomials multiplied;
* results are memoized on the exact labeled adjacency encoding, which is
  shared aggressively because pivot/delete branches revisit the same
  labeled subgraphs;
* in a graph of order >= LEAF_TABLE_MIN_ORDER (T = 16, the least order at
  which a call that builds the table is no slower), each subproblem of
  order <= 6 is one lookup, ahead of the split and the memo, in a table
  keyed by pair mask and converted once per process from the order <= 6
  distinct rows that enumeration shares with every CoefficientTable.

The pivot edge is chosen deterministically: first endpoint of minimum
degree (ties by index), second its lowest-indexed neighbor.  Deleting a
low-degree vertex tends to disconnect and shrink subproblems.

The engine's values are packed ints q(G; 2^64), 64-bit lane d holding the
degree-d coefficient: a sum is +, a disjoint union *, a factor x << 64.
No lane carries: q(G;2) = sum c_d 2^d = 2^n with c_d >= 0 and c_0 = 0
gives c_d <= 2^(n-1) < 2^64 for n <= 64, and every lane of a sum or
product is a coefficient of q of a real graph.  A memo cache is a plain
dict from adjacency-row tuples to these opaque values; leaves never reach
it.  Pass one in to share work across calls; each worker should own its.

Paths are indexed by edge count: path_polynomial(n) is the path with n
edges and n + 1 vertices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import MutableMapping, Sequence

from .enumeration import CoefficientTable
from .graphs import (
    Graph,
    TooLargeError,
    _delete_rows,
    _induced_rows,
    _mask_of_rows,
    _pivot_rows,
    _row_components,
    complete_graph,
    edgeless_graph,
    substitute,
)
from .polynomials import IntPolynomial

MemoCache = MutableMapping[tuple[int, ...], int]

LANE = 64  # bits per coefficient of a packed value q(G; 2^64)
LEAF_ORDER = 6
LEAF_TABLE_MIN_ORDER = 16


@lru_cache(maxsize=None)
def _leaf_table() -> tuple[list[int], ...]:
    """``leaves[k][mask]``: packed q of every graph of order k <= LEAF_ORDER,
    packed once per distinct coefficient row."""
    table = CoefficientTable(LEAF_ORDER)
    leaves = []
    for k in range(LEAF_ORDER + 1):
        rows, index = table.distinct(k)
        packed = [sum(c << LANE * d for d, c in enumerate(row)) for row in rows.tolist()]
        leaves.append([packed[i] for i in index.tolist()])
    return tuple(leaves)


def _unpack(value: int, n: int) -> IntPolynomial:
    """The polynomial of a packed value of an order-n graph."""
    return IntPolynomial(value >> LANE * d & (1 << LANE) - 1 for d in range(n + 1))


def _q_connected(rows: tuple[int, ...], memo: MemoCache, leaves: Sequence) -> int:
    """Packed q of a connected graph with at least one edge, given as rows."""
    got = memo.get(rows)
    if got is not None:
        return got
    # pivot edge: a of minimum degree, b its lowest neighbor
    a, da = 0, 65
    for v, r in enumerate(rows):
        d = r.bit_count()
        if d < da:
            a, da = v, d
    b = (rows[a] & -rows[a]).bit_length() - 1
    left = _q_rows(_delete_rows(rows, a), memo, leaves)
    right = _q_rows(_delete_rows(_pivot_rows(rows, a, b), b), memo, leaves)
    res = memo[rows] = left + right
    return res


def _q_rows(rows: tuple[int, ...], memo: MemoCache, leaves: Sequence = ()) -> int:
    """Packed q: a leaf lookup below order len(leaves), else the product
    over the components, where an isolated vertex gives x."""
    k = len(rows)
    if k < len(leaves):
        return leaves[k][_mask_of_rows(rows)]
    full, isolated, res = (1 << k) - 1, 0, 1
    for comp in _row_components(rows):
        if not comp & (comp - 1):
            isolated += 1
        elif comp == full:
            return _q_connected(rows, memo, leaves)
        else:
            res *= _q_connected(_induced_rows(rows, comp), memo, leaves)
    return res << LANE * isolated


def interlace_polynomial(g: Graph, cache: MemoCache | None = None) -> IntPolynomial:
    """Compute q(G) exactly by memoized pivot reduction.

    Practical up to order ~25 for dense graphs; far beyond for forests
    and sparse graphs.  Pass a dict as ``cache`` to reuse work across
    calls.
    """
    if cache is None:
        cache = {}
    leaves = _leaf_table() if g.n >= LEAF_TABLE_MIN_ORDER else ()
    return _unpack(_q_rows(g.rows, cache, leaves), g.n)


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
