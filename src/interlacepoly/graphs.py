"""Vertex-indexed simple undirected graphs with the pivot operator.

A graph is a frozen dataclass, its order and adjacency rows only: the
order is capped at 64 and each row is one machine-word bitmask, which
makes the pivot O(n) mask arithmetic and graphs cheap to hash for
memoization.  All operations are pure functions returning new graphs;
graphs pickle and copy, so they cross threads and processes alike.

The pivot G^{ab} of a graph on an edge ab partitions the vertices other
than a and b into four classes -- adjacent to a only, to b only, to both,
to neither -- and toggles every pair lying in two *different* classes
among the first three.  That is the complete tripartite graph T[X, Y] on
X - Y, Y - X and X & Y for X = N(a) - b and Y = N(b) - a, toggled by
``_toggle_rows``, which XORs row u with Y if u is in X and with X if u
is in Y.  Pairs involving a or b, and pairs inside a single class, are
untouched; in particular the neighborhoods of a and b themselves are
identical in G and G^{ab}.

Pivoting about a non-edge is rejected: every identity consuming pivots
assumes an edge, and a silent non-edge pivot is a bug magnet.

The toggle, induced subgraphs (vertex deletion among them) and the one
breadth-first walk (components, digraph connectivity, the frontier's
vertex order) are each written once, on bare adjacency rows
(``_toggle_rows``, ``_induced_rows``, ``_bfs_components``); the engines
call them directly, and the Graph functions validate their arguments and
wrap them.  The pair mask (bit C(j,2) + i per edge ij, i < j) is written
once too, in ``_mask_of_rows`` and ``_rows_of_mask``; a graph6 body is
that mask, and so is the frontier's leaf key, on uint64 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 64


class NotAnEdgeError(ValueError):
    """A pivot was requested about a vertex pair that is not an edge."""


class TooLargeError(ValueError):
    """The instance exceeds the cutoff of a brute-force operation."""


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """Simple undirected graph: no loops, no multiple edges, order <= 64.

    A graph is its order ``n`` and its adjacency ``rows``: ``rows[v]`` is
    the neighbor bitmask of vertex v (bit u set iff uv is an edge).  The
    identities this library verifies are statements about vertex-indexed
    graphs, so vertices carry no names.
    """

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= MAX_ORDER:
            raise ValueError(f"order must be in 0..{MAX_ORDER}, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        g = cls.__new__(cls)
        n = len(rows)
        if n > MAX_ORDER:
            raise ValueError(f"order must be <= {MAX_ORDER}, got {n}")
        # the codec keeps only the bits below the diagonal
        if list(rows) != _rows_of_mask(n, _mask_of_rows(rows)):
            raise ValueError("asymmetric, looped, out-of-range or negative rows")
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        return g

    # -- queries -------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u in range(self.n) if self.rows[v] >> u & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            m = self.rows[v] >> (v + 1) << (v + 1)
            while m:
                u = (m & -m).bit_length() - 1
                yield (v, u)
                m &= m - 1

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"


# -- builders -----------------------------------------------------------


def edgeless_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for j in range(n) for i in range(j)])


def path_graph(n_edges: int) -> Graph:
    """The path with ``n_edges`` edges, hence n_edges + 1 vertices.

    Paths here are indexed by edge count throughout the library; getting
    this off by one silently corrupts every Fibonacci identity downstream.
    """
    if n_edges < 0:
        raise ValueError("n_edges must be >= 0")
    return Graph(n_edges + 1, [(i, i + 1) for i in range(n_edges)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def substitute(template: Graph, parts: Sequence[Graph]) -> Graph:
    """G[G_1,...,G_n]: replace vertex i of the template by the graph
    parts[i], joining all of parts[i] to all of parts[j] whenever ij is a
    template edge.  Empty parts (order 0) are permitted.
    """
    if len(parts) != template.n:
        raise ValueError("need exactly one replacement graph per template vertex")
    offs = [0]
    for p in parts:
        offs.append(offs[-1] + p.n)
    edges = []
    for i, p in enumerate(parts):
        edges.extend((offs[i] + u, offs[i] + v) for u, v in p.edges())
    for i, j in template.edges():
        edges.extend(
            (u, v)
            for u in range(offs[i], offs[i] + parts[i].n)
            for v in range(offs[j], offs[j] + parts[j].n)
        )
    return Graph(offs[-1], edges)


def complete_multipartite_graph(parts: Sequence[int]) -> Graph:
    """K_{p_1,...,p_k}: the complete graph with vertex i replaced by an
    edgeless graph of order parts[i], its vertices numbered part by part."""
    return substitute(complete_graph(len(parts)), [edgeless_graph(p) for p in parts])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    return complete_multipartite_graph((m, n))


def star_graph(leaves: int) -> Graph:
    """Star with given leaf count; vertex 0 is the center."""
    return complete_bipartite_graph(1, leaves)


# -- pivot and relabeling -------------------------------------------------


def pivot(g: Graph, a: int, b: int) -> Graph:
    """The pivot G^{ab}; requires ab to be an edge of g.

    Symmetric in a and b, and an involution: pivot(pivot(g,a,b),a,b) == g.
    """
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        raise ValueError(f"invalid vertex pair ({a},{b})")
    if not g.has_edge(a, b):
        raise NotAnEdgeError(f"({a},{b}) is not an edge")
    return Graph.from_rows(_toggle_rows(g.rows, g.rows[a] ^ 1 << b, g.rows[b] ^ 1 << a))


def _toggle_rows(rows: Sequence[int], X: int, Y: int) -> tuple[int, ...]:
    """Rows with T[X, Y] toggled: row u XORed with Y if u is in X and with X
    if u is in Y (unchecked)."""
    return tuple(r ^ (X >> u & 1) * Y ^ (Y >> u & 1) * X for u, r in enumerate(rows))


def pivot_brute(g: Graph, a: int, b: int) -> Graph:
    """Reference pivot, straight from the four-class definition.

    Kept as an independent oracle for the fast mask implementation.
    """
    if not g.has_edge(a, b):
        raise NotAnEdgeError(f"({a},{b}) is not an edge")

    def cls(v):
        na, nb = g.has_edge(a, v), g.has_edge(b, v)
        return {(True, False): 1, (False, True): 2, (True, True): 3, (False, False): 4}[
            (na, nb)
        ]

    others = [v for v in range(g.n) if v not in (a, b)]
    edges = {frozenset(e) for e in g.edges()}
    for i, x in enumerate(others):
        for y in others[i + 1 :]:
            cx, cy = cls(x), cls(y)
            if cx != cy and cx != 4 and cy != 4:
                edges ^= {frozenset((x, y))}
    return Graph(g.n, [tuple(e) for e in edges])


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a permutation to the vertices: new index perm[v] plays old v."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    rows = [0] * g.n
    for v in range(g.n):
        r, m = 0, g.rows[v]
        while m:
            u = (m & -m).bit_length() - 1
            r |= 1 << perm[u]
            m &= m - 1
        rows[perm[v]] = r
    return Graph.from_rows(rows)


def label_swap(g: Graph, a: int, b: int) -> Graph:
    """G_{ab}: the same graph with the roles of vertices a and b exchanged."""
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        raise ValueError(f"invalid vertex pair ({a},{b})")
    perm = list(range(g.n))
    perm[a], perm[b] = b, a
    return relabel(g, perm)


# -- structural operations ------------------------------------------------


def _induced_rows(rows: Sequence[int], mask: int) -> tuple[int, ...]:
    """Rows induced on the vertices of ``mask``, compacted in order."""
    verts = []
    m = mask
    while m:
        verts.append((m & -m).bit_length() - 1)
        m &= m - 1
    out = []
    for v in verts:
        r, nr = rows[v], 0
        for i, u in enumerate(verts):
            if r >> u & 1:
                nr |= 1 << i
        out.append(nr)
    return tuple(out)


def _bfs_components(rows: Sequence[int]) -> list[list[int]]:
    """The vertices of each component in breadth-first order from its lowest
    vertex, neighbors taken in increasing order; components in order of
    lowest vertex."""
    out, seen = [], 0
    for root in range(len(rows)):
        if not seen >> root & 1:
            seen |= 1 << root
            queue = [root]
            for u in queue:
                new = rows[u] & ~seen
                seen |= new
                while new:
                    queue.append((new & -new).bit_length() - 1)
                    new &= new - 1
            out.append(queue)
    return out


def delete_vertex(g: Graph, v: int) -> Graph:
    """G - v: remove v; each later vertex u becomes u - 1."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return Graph.from_rows(_induced_rows(g.rows, (1 << g.n) - 1 ^ 1 << v))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertices, re-indexed in sorted order."""
    keep = sorted(set(vertices))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise ValueError("vertex out of range")
    mask = 0
    for v in keep:
        mask |= 1 << v
    return Graph.from_rows(_induced_rows(g.rows, mask))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    if n > MAX_ORDER:
        raise ValueError(f"union order {n} exceeds {MAX_ORDER}")
    return Graph.from_rows(list(g1.rows) + [r << g1.n for r in g2.rows])


def component_masks(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components, in order of minimum vertex."""
    return [sum(1 << v for v in comp) for comp in _bfs_components(g.rows)]


def component_count(g: Graph) -> int:
    return len(component_masks(g))


def is_connected(g: Graph) -> bool:
    """True for connected graphs; the null graph counts as connected."""
    return component_count(g) <= 1


BRUTE_FORCE_MAX_ORDER = 24


def independence_number(g: Graph) -> int:
    """Exact alpha(G) by branch-and-bound subset search; order <= 24."""
    if g.n > BRUTE_FORCE_MAX_ORDER:
        raise TooLargeError(f"order {g.n} exceeds {BRUTE_FORCE_MAX_ORDER}")
    rows = g.rows

    def best(avail: int) -> int:
        if avail == 0:
            return 0
        # branch on a max-degree-within-avail vertex
        v, dv = -1, -1
        m = avail
        while m:
            u = (m & -m).bit_length() - 1
            d = (rows[u] & avail).bit_count()
            if d > dv:
                v, dv = u, d
            m &= m - 1
        if dv == 0:
            return avail.bit_count()  # remaining vertices are independent
        with_v = 1 + best(avail & ~rows[v] & ~(1 << v))
        without_v = best(avail & ~(1 << v))
        return max(with_v, without_v)

    return best((1 << g.n) - 1)


def matching_number(g: Graph) -> int:
    """Exact mu(G) by memoized exhaustive matching search; order <= 24."""
    if g.n > BRUTE_FORCE_MAX_ORDER:
        raise TooLargeError(f"order {g.n} exceeds {BRUTE_FORCE_MAX_ORDER}")
    rows = g.rows
    memo: dict[int, int] = {}

    def best(avail: int) -> int:
        if avail == 0:
            return 0
        got = memo.get(avail)
        if got is not None:
            return got
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        res = best(rest)  # leave v unmatched
        m = rows[v] & rest
        while m:
            u = (m & -m).bit_length() - 1
            res = max(res, 1 + best(rest & ~(1 << u)))
            m &= m - 1
        memo[avail] = res
        return res

    return best((1 << g.n) - 1)


# -- edge-list text format ------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    Line 1 is "n m"; the next m lines are "u v" with 0-based indices,
    each pair at most once in either orientation.  Blank lines and lines
    starting with '#' are ignored.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges: dict[tuple[int, int], None] = {}  # a set in input order
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if (u, v) in edges or (v, u) in edges:
            raise ValueError(f"repeated edge {u} {v}")
        edges[u, v] = None
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted((min(e), max(e)) for e in g.edges()))
    return "\n".join(lines) + "\n"


# -- pair masks and graph6 -----------------------------------------------
#
# Pair-mask bits run down the columns of the upper triangle (x_{0,1}, x_{0,2},
# x_{1,2}, ...); graph6 is N(n), then those bits in 6-bit groups, each + 63.


def _mask_of_rows(rows):
    """The pair mask of the graph with these adjacency rows: ints, or uint64
    arrays with one graph per lane (exact while C(k,2) <= 64 for k rows)."""
    mask = j = 0  # row j's bits below j go to C(j,2) + i
    for r in rows:
        mask |= (r & (1 << j) - 1) << (j * (j - 1) >> 1)
        j += 1
    return mask


def _rows_of_mask(n: int, mask: int) -> list[int]:
    """The adjacency rows of the order-n graph with this pair mask."""
    rows = [0] * n
    for j in range(1, n):
        low = rows[j] = mask >> (j * (j - 1) >> 1) & (1 << j) - 1
        while low:
            rows[(low & -low).bit_length() - 1] |= 1 << j
            low &= low - 1
    return rows


def _graph6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 63 <= n <= 258047: '~' then 18 bits in three 6-bit groups
    return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])


def to_graph6(g: Graph) -> str:
    width = -(-(g.n * (g.n - 1) // 2) // 6) * 6  # C(n,2) bits, whole groups
    bits = f"{_mask_of_rows(g.rows):0{width}b}"[::-1]  # lowest bit first
    body = bytes(int(bits[k : k + 6], 2) + 63 for k in range(0, width, 6))
    return (_graph6_size_bytes(g.n) + body).decode("ascii")


def from_graph6(s: str) -> Graph:
    raw = s.strip().encode("ascii")
    if raw.startswith(b">>graph6<<"):
        raw = raw[10:]
    if not raw:
        raise ValueError("empty graph6 input")
    for byte in raw:
        if not 63 <= byte <= 126:
            raise ValueError(f"invalid graph6 byte {byte}")
    if raw[0] == 126:
        if len(raw) < 4 or raw[1] == 126:
            raise ValueError("unsupported graph6 size encoding")
        n = (raw[1] - 63) << 12 | (raw[2] - 63) << 6 | (raw[3] - 63)
        if n < 63:
            raise ValueError(f"graph6 order {n} needs the one-byte size form")
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    if n > MAX_ORDER:
        raise ValueError(f"graph6 order {n} exceeds {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 body has wrong length")
    bits = "".join(f"{byte - 63:06b}" for byte in body)
    if "1" in bits[nbits:]:
        raise ValueError("graph6 padding bits are not zero")
    return Graph.from_rows(_rows_of_mask(n, int(bits[:nbits][::-1] or "0", 2)))
