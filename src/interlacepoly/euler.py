"""Double occurrence words, balanced digraphs, and circuit counting.

A double occurrence word is a cyclic sequence in which each of n symbols
appears exactly twice: the visit order of an Euler circuit of a 2-in/2-out
digraph.  Words are stored canonically, as the lexicographically smallest
linear rotation that begins at an occurrence of the smallest symbol, so
word equality is cyclic equality.  Reflections are *not* identified
(circuits are directed).

Two symbols are interlaced when their occurrences cross (the cyclic
order reads a..b..a..b); the interlace graph has an edge for every
interlaced pair.  Transposing a word on an interlaced pair exchanges one
of the two a-to-b stretches with the other; which pair of occurrences
delimits the stretches does not matter, both choices produce the same
cyclic word (checked by brute force in the tests).

A BalancedDigraph is a multi-digraph with distinguishable arcs and
distinguishable loops in which every vertex has in-degree equal to
out-degree, plus a count of free loops (closed curves through no vertex).
Such digraphs are exactly the edge-disjoint unions of oriented circuits
and free loops.  A transition system matches, at every vertex, each
in-arc to an out-arc, so it is a successor list on the arcs whose cycles
are its circuits (``circuit_partitions``).  The circuit partition polynomial

    r(D; x) = sum_k (number of transition systems with k circuits) x^k

(with a factor x per free loop) and the Martin polynomial
m(D; x) = r(D; x-1)/(x-1) tie this module to the interlace polynomial:
for a word w with interlace graph H and digraph D,

    x q(H; 1+x) = r(D; x),    q(H; x) = m(D; x),

and in particular q(H; 1) is the number of Euler circuits of D.  The
circuits of a transition system, the anti-circuits and the free loops of
a vertex resolution are all cycles of one successor list, read by one
walk (``_cycles``).

One caution on words versus circuits: an Euler circuit is a cyclic
sequence of *arcs*, and distinct circuits can visit vertices in the same
order when the digraph has parallel arcs (smallest case: the word
"1 2 1 2", whose digraph has two Euler circuits but only one vertex-visit
word).  Counting operations here therefore count circuits, not words.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, TooLargeError, _row_components
from .polynomials import IntPolynomial

FORWARD, BACKWARD = 0, 1


class NotInterlacedError(ValueError):
    """A transposition was requested on a pair that is not interlaced."""


class DisconnectedError(ValueError):
    """An Euler-circuit operation was applied to a disconnected digraph."""


class DoubleOccurrenceWord:
    """A cyclic word over symbols 0..n-1, each appearing exactly twice.

    ``symbols`` holds the canonical linear rotation; ``labels``, when
    present, map symbol ids back to the tokens they were parsed from.
    """

    __slots__ = ("symbols", "labels")

    def __init__(
        self, symbols: Iterable[int], labels: Sequence[str] | None = None
    ):
        syms = tuple(symbols)
        n2 = len(syms)
        if n2 % 2:
            raise ValueError("word length must be even")
        n = n2 // 2
        counts = [0] * n
        for s in syms:
            if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s < n:
                raise ValueError(f"symbols must be dense ints 0..{n - 1}, got {s!r}")
            counts[s] += 1
        if any(c != 2 for c in counts):
            raise ValueError("every symbol must appear exactly twice")
        object.__setattr__(self, "symbols", _canonical_rotation(syms))
        object.__setattr__(
            self, "labels", tuple(labels) if labels is not None else None
        )

    def __setattr__(self, name, value):
        raise AttributeError("DoubleOccurrenceWord is immutable")

    @classmethod
    def parse(cls, text: str) -> "DoubleOccurrenceWord":
        """Parse whitespace-separated tokens; tokens become dense symbol
        ids in order of first appearance."""
        tokens = text.split()
        ids: dict[str, int] = {}
        syms = []
        for t in tokens:
            if t not in ids:
                ids[t] = len(ids)
            syms.append(ids[t])
        return cls(syms, labels=tuple(ids))

    @property
    def n(self) -> int:
        """Number of distinct symbols."""
        return len(self.symbols) // 2

    def token(self, s: int) -> str:
        return self.labels[s] if self.labels is not None else str(s)

    def __str__(self) -> str:
        return " ".join(self.token(s) for s in self.symbols)

    def __repr__(self) -> str:
        return f"DoubleOccurrenceWord({list(self.symbols)!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DoubleOccurrenceWord) and self.symbols == other.symbols
        )

    def __hash__(self) -> int:
        return hash(self.symbols)


def _canonical_rotation(syms: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of a word over 0..n-1: the lesser of the two
    that start at an occurrence of 0, its least symbol."""
    if not syms:
        return syms
    i = syms.index(0)
    j = syms.index(0, i + 1)
    return min(syms[i:] + syms[:i], syms[j:] + syms[:j])


# -- word primitives on symbol tuples ----------------------------------------
#
# A word here is a tuple over symbols 0..n-1, each appearing twice.  The
# word objects below, the orbit searches and the orbit suite all work
# through these few functions.


def _occurrences(word: Sequence[int]) -> tuple[list[int], list[int]]:
    """The first and the second position of every symbol."""
    n = len(word) // 2
    first = [-1] * n
    second = [0] * n
    for i, s in enumerate(word):
        if first[s] < 0:
            first[s] = i
        else:
            second[s] = i
    return first, second


def _interlaced_pairs(
    first: Sequence[int], second: Sequence[int]
) -> list[tuple[int, int, int, int, int, int]]:
    """(a, b, i, j, k, l) for every interlaced pair a < b, where
    i < j < k < l are the positions of the four occurrences: one symbol
    sits at i and k, the other at j and l."""
    n = len(first)
    out = []
    for a in range(n):
        p1, p2 = first[a], second[a]
        for b in range(a + 1, n):
            q1, q2 = first[b], second[b]
            if p1 < q1 < p2 < q2:
                out.append((a, b, p1, q1, p2, q2))
            elif q1 < p1 < q2 < p2:
                out.append((a, b, q1, p1, q2, p2))
    return out


def _transpose_slice(s: tuple, i: int, j: int, k: int, l: int) -> tuple:
    """s with the stretches s[i:j] and s[k:l] exchanged (i <= j <= k <= l).

    For an interlaced pair at positions i < j < k < l, the transposed
    word exchanges s[i+1:j] with s[k+1:l], and the transposed circuit
    (a tuple of arcs) exchanges c[i:j] with c[k:l]."""
    return s[:i] + s[k:l] + s[j:k] + s[i:j] + s[l:]


def _crossing(w: DoubleOccurrenceWord, a: int, b: int) -> list[int] | None:
    """Positions i < j < k < l of the occurrences of a and b when they
    are interlaced, else None.  ValueError when either is not a symbol."""
    if not (0 <= a < w.n and 0 <= b < w.n):
        raise ValueError(f"symbols {a} and {b} must both be in 0..{w.n - 1}")
    first, second = _occurrences(w.symbols)
    pair = _interlaced_pairs((first[a], first[b]), (second[a], second[b]))
    for _, _, *pos in pair:
        return pos
    return None


def interlaced(w: DoubleOccurrenceWord, a: int, b: int) -> bool:
    """True when the occurrences of a and b cross in the cyclic order."""
    return _crossing(w, a, b) is not None


def interlace_graph(w: DoubleOccurrenceWord) -> Graph:
    """The interlace graph H(w): symbols as vertices, edges between
    interlaced pairs.  This is the circle graph of the chord diagram."""
    edges = [(a, b) for a, b, *_ in _interlaced_pairs(*_occurrences(w.symbols))]
    return Graph(w.n, edges)


def transpose(w: DoubleOccurrenceWord, a: int, b: int) -> DoubleOccurrenceWord:
    """Transpose the word on an interlaced pair: exchange one a-to-b
    stretch with the other.  An involution on cyclic words."""
    pos = _crossing(w, a, b)
    if pos is None:
        raise NotInterlacedError(f"symbols {a} and {b} are not interlaced")
    i, j, k, l = pos
    out = _transpose_slice(w.symbols, i + 1, j, k + 1, l)
    return DoubleOccurrenceWord(out, w.labels)


# -- orbits ------------------------------------------------------------------

# an orbit holds q(H;1) <= 2^(n-1) circuits, so this binds above 23 symbols
CIRCUIT_ORBIT_MAX_SIZE = 1 << 22


def _circuit_orbit(word: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Euler circuits of the digraph of a word tuple, as tuples of arc
    ids starting at arc 0 (arc e runs from word[e] to word[e+1]):
    the closure of the word's own circuit under arc-level transpositions,
    by a stack walk.  Each circuit maps to its visit word, word gathered
    along it, stored when the circuit is first found; TooLargeError once
    more than CIRCUIT_ORBIT_MAX_SIZE circuits are found."""
    start = tuple(range(len(word)))
    orbit = {start: word}
    stack = [start]
    while stack:
        c = stack.pop()
        for _, _, i, j, k, l in _interlaced_pairs(*_occurrences(orbit[c])):
            t = _transpose_slice(c, i, j, k, l)
            if t[0]:  # arc 0 moved, which happens only when i == 0
                z = t.index(0)
                t = t[z:] + t[:z]
            if t not in orbit:
                if len(orbit) >= CIRCUIT_ORBIT_MAX_SIZE:
                    cap = CIRCUIT_ORBIT_MAX_SIZE
                    raise TooLargeError(f"orbit exceeds {cap} elements")
                orbit[t] = tuple(map(word.__getitem__, t))
                stack.append(t)
    return orbit


def circuit_transposition_orbit(
    w: DoubleOccurrenceWord,
) -> dict[tuple[int, ...], DoubleOccurrenceWord]:
    """Orbit of the word's own circuit under arc-level transpositions:
    each circuit, a tuple of arc ids from arc 0 (arc e leaves position e),
    mapped to its vertex-visit word in the word's own tokens.

    The orbit is the full set of Euler circuits of the word's digraph
    (they form a single orbit), so its size is the BEST count.  Its set of
    visit words is the closure of {w} under transpositions on interlaced
    pairs, and can be *smaller* than the circuit count when parallel arcs
    make several circuits share a visit word.
    """
    orbit = _circuit_orbit(w.symbols)
    return {c: DoubleOccurrenceWord(v, w.labels) for c, v in orbit.items()}


# -- balanced digraphs ------------------------------------------------------


class BalancedDigraph:
    """Multi-digraph with distinguishable arcs; in-degree = out-degree
    everywhere; ``free_loops`` counts vertexless loops.

    Arcs are (tail, head) pairs identified by position; parallel arcs and
    loops are allowed and distinct.  ``in_lists[v]`` and ``out_lists[v]``
    hold the ids of the arcs with head v and with tail v, in increasing
    order.  Equality compares the arc multiset, the order and the
    free-loop count.
    """

    __slots__ = ("order", "arcs", "free_loops", "in_lists", "out_lists")

    def __init__(
        self,
        order: int,
        arcs: Iterable[tuple[int, int]],
        free_loops: int = 0,
    ):
        arcs = tuple((int(t), int(h)) for t, h in arcs)
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if free_loops < 0:
            raise ValueError("free_loops must be >= 0")
        in_lists: list[list[int]] = [[] for _ in range(order)]
        out_lists: list[list[int]] = [[] for _ in range(order)]
        for i, (t, h) in enumerate(arcs):
            if not (0 <= t < order and 0 <= h < order):
                raise ValueError(f"arc ({t},{h}) out of range for order {order}")
            out_lists[t].append(i)
            in_lists[h].append(i)
        for v in range(order):
            if len(in_lists[v]) != len(out_lists[v]):
                raise ValueError(
                    f"vertex {v} has in-degree {len(in_lists[v])}"
                    f" != out-degree {len(out_lists[v])}"
                )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "in_lists", tuple(map(tuple, in_lists)))
        object.__setattr__(self, "out_lists", tuple(map(tuple, out_lists)))

    def __setattr__(self, name, value):
        raise AttributeError("BalancedDigraph is immutable")

    @property
    def is_two_in_two_out(self) -> bool:
        return all(len(outs) == 2 for outs in self.out_lists)

    def is_connected(self) -> bool:
        """Weak connectivity over all ``order`` vertices (no free loops)."""
        if self.free_loops:
            return False
        rows = [0] * self.order
        for t, h in self.arcs:
            rows[t] |= 1 << h
            rows[h] |= 1 << t
        return len(_row_components(rows)) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BalancedDigraph)
            and self.order == other.order
            and self.free_loops == other.free_loops
            and sorted(self.arcs) == sorted(other.arcs)
        )

    def __hash__(self) -> int:
        return hash((self.order, self.free_loops, tuple(sorted(self.arcs))))

    def __repr__(self) -> str:
        fl = f", free_loops={self.free_loops}" if self.free_loops else ""
        return f"BalancedDigraph(order={self.order}, arcs={list(self.arcs)}{fl})"


def loops_digraph(m: int) -> BalancedDigraph:
    """m distinguishable loops on a single vertex."""
    if m < 0:
        raise ValueError(f"loop count must be >= 0, got {m}")
    return BalancedDigraph(1, [(0, 0)] * m)


def digraph_from_word(w: DoubleOccurrenceWord) -> BalancedDigraph:
    """The 2-in/2-out digraph visited by the word: arcs join consecutive
    symbols cyclically; arc i runs from position i to position i+1."""
    s = w.symbols
    arcs = [(s[i], s[(i + 1) % len(s)]) for i in range(len(s))]
    return BalancedDigraph(w.n, arcs)


# -- transition systems and circuit partitions ------------------------------


def circuit_partitions(d: BalancedDigraph) -> Iterator[list[tuple[int, ...]]]:
    """The circuits of every transition system, one list per system.

    A transition system matches, at every vertex, its in-arcs in arc-id
    order to a permutation of its out-arcs; the systems are the product
    of those permutations over the vertices, in that order.  Each arc's
    successor is the out-arc matched to it, and the circuits are the
    cycles of that successor list, each read from its least arc and
    sorted by it.  Free loops are not listed; each adds one circuit.
    """
    nxt = [0] * len(d.arcs)
    for choice in product(*(permutations(outs) for outs in d.out_lists)):
        for ins, outs in zip(d.in_lists, choice):
            for e, f in zip(ins, outs):
                nxt[e] = f
        yield _cycles(nxt, range(len(nxt)))


def transition_system_count(d: BalancedDigraph) -> int:
    count = 1
    for ins in d.in_lists:
        count *= factorial(len(ins))
    return count


def _cycles(succ, items: Iterable[int]) -> list[tuple[int, ...]]:
    """The cycles of ``succ`` (a list or dict) through ``items``, which it
    maps onto themselves, each read from its least item, sorted by it."""
    seen, cycles = set(), []
    for start in sorted(items):
        if start not in seen:
            cyc = [start]
            e = succ[start]
            while e != start:
                cyc.append(e)
                e = succ[e]
            seen.update(cyc)
            cycles.append(tuple(cyc))
    return cycles


def _plain_changes(k: int) -> list[int]:
    """Plain changes (Steinhaus-Johnson-Trotter) on k items: positions i
    such that swapping the entries at i and i+1, in turn, walks from the
    identity through all k! permutations, each once.  The list reads the
    same backwards."""
    if k < 2:
        return []
    down, up = list(range(k - 2, -1, -1)), list(range(k - 1))
    swaps: list[int] = []
    # the largest item sweeps down and up; between sweeps the others take
    # one plain change of k-1 items, shifted by one while it sits in front
    for t, inner in enumerate(_plain_changes(k - 1) + [None]):
        swaps.extend(up if t % 2 else down)
        if inner is not None:
            swaps.append(inner + (t % 2 == 0))
    return swaps


def _gray_steps(digits: list[list]) -> list:
    """All steps of the reflected mixed-radix Gray code in which digit j
    takes the steps digits[j] in turn, then the same steps backwards.

    Around and between the steps of each digit, the digits before it run
    their whole walk, alternately forward and reversed.  When every
    digit's steps read the same backwards, as plain changes do, so does
    every such walk, and the reversed runs are plain repeats.
    """
    steps: list = []
    for digit in digits:
        inner = steps
        steps = list(inner)
        for step in digit:
            steps.append(step)
            steps.extend(inner)
    return steps


TRANSITION_ENUMERATION_CUTOFF = 1 << 20


def _check_enumerable(d: BalancedDigraph) -> None:
    """TooLargeError when d has more transition systems than the cutoff."""
    total = transition_system_count(d)
    if total > TRANSITION_ENUMERATION_CUTOFF:
        raise TooLargeError(
            f"{total} transition systems exceeds {TRANSITION_ENUMERATION_CUTOFF}"
        )


def circuit_partition_polynomial(d: BalancedDigraph) -> IntPolynomial:
    """r(D; x): coefficient of x^k counts the partitions into k circuits.

    Every transition system (product over vertices of (degree)!
    matchings) is visited, in a Gray-code order in which consecutive
    systems differ at one vertex by exchanging the next arcs of two of
    its in-arcs: plain changes order each vertex's matchings, a reflected
    mixed-radix Gray code combines the vertices.  The next-arc map is a
    permutation of the arcs whose cycles are the circuits, and exchanging
    two of its images changes the cycle count by exactly one: +1 (a
    split) when the two in-arcs lie on the same circuit, -1 (a merge)
    when they do not.  So each system costs one swap and one walk along
    a circuit, never a rebuild.  The steps are listed up front, one per
    transition system after the first.  Each free loop multiplies by x.
    For m loops on one vertex this yields the rising factorial
    x(x+1)...(x+m-1).
    """
    _check_enumerable(d)
    # start from the identity matching at every vertex
    nxt = [0] * len(d.arcs)
    digits = []  # per vertex of degree >= 2: the in-arc pair of each step
    for ins, outs in zip(d.in_lists, d.out_lists):
        for e, f in zip(ins, outs):
            nxt[e] = f
        if len(ins) > 1:
            digits.append([(ins[i], ins[i + 1]) for i in _plain_changes(len(ins))])
    count = len(_cycles(nxt, range(len(d.arcs))))
    hist = [0] * (len(d.arcs) + 1)
    hist[count] = 1
    for e1, e2 in _gray_steps(digits):
        e = nxt[e1]
        while e != e1 and e != e2:
            e = nxt[e]
        count += 1 if e == e2 else -1
        nxt[e1], nxt[e2] = nxt[e2], nxt[e1]
        hist[count] += 1
    return IntPolynomial([0] * d.free_loops + hist)


def martin_polynomial(d: BalancedDigraph) -> IntPolynomial:
    """m(D; x) = r(D; x-1) / (x-1), exactly.

    Needs at least one arc or free loop, so that r has no constant term
    and the division is exact; otherwise NonzeroRemainderError is raised.
    """
    return _martin_from_circuit_partition(circuit_partition_polynomial(d))


def _martin_from_circuit_partition(r: IntPolynomial) -> IntPolynomial:
    """m(D; x) from r(D; x): r(D; x-1) / (x-1)."""
    return r.shift_argument(-1).divide_exact_by_x_minus_1()


def word_of_circuit(d: BalancedDigraph, circuit: Sequence[int]) -> DoubleOccurrenceWord:
    """Render an Euler circuit (arc-id cycle) as its vertex-visit word."""
    return DoubleOccurrenceWord(tuple(d.arcs[e][0] for e in circuit))


def euler_circuits_brute(d: BalancedDigraph) -> list[DoubleOccurrenceWord]:
    """All Euler circuits, by exhausting transition systems.

    Each single-circuit transition system contributes its vertex-visit
    word; the list length is the Euler circuit count r_1(D).  Entries can
    repeat when parallel arcs make distinct circuits visit vertices in
    the same order.
    """
    if not d.is_connected():
        raise DisconnectedError("Euler circuits need a connected digraph")
    _check_enumerable(d)
    return [word_of_circuit(d, p[0]) for p in circuit_partitions(d) if len(p) == 1]


# -- BEST-theorem counting --------------------------------------------------


def _bareiss_determinant(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _best_cofactor(order: int, arcs: Iterable[tuple[int, int]]) -> int:
    """Arborescences into vertex 0: the (0, 0) cofactor of the directed
    Laplacian of the arcs, loops excluded."""
    lap = [[0] * order for _ in range(order)]
    for t, h in arcs:
        if t != h:
            lap[t][t] += 1
            lap[t][h] -= 1
    return _bareiss_determinant([row[1:] for row in lap[1:]])


def euler_circuit_count_best(d: BalancedDigraph) -> int:
    """Euler circuit count of a connected 2-in/2-out digraph.

    By the BEST theorem the count is the number of arborescences into a
    fixed root times prod_v (outdeg(v) - 1)!; with all out-degrees 2 the
    factorial product is 1, and the arborescence count is a cofactor of
    the directed Laplacian (loops excluded -- a loop at a 2-in/2-out
    vertex never changes the tree count).  The cofactor is computed as an
    exact integer determinant.
    """
    if not d.is_two_in_two_out:
        raise ValueError("BEST counting here expects a 2-in/2-out digraph")
    if not d.is_connected():
        raise DisconnectedError("Euler circuits need a connected digraph")
    return _best_cofactor(d.order, d.arcs)


# -- anti-circuits ----------------------------------------------------------


def anti_circuit_count(d: BalancedDigraph) -> int:
    """Number of anti-circuits of a 2-in/2-out digraph (no free loops).

    An anti-circuit is a closed walk whose consecutive arcs have opposite
    orientations: arriving at a vertex along one in-arc, it leaves
    backwards along the *other* in-arc, and symmetrically for out-arcs.
    Every 2-in/2-out digraph decomposes uniquely into anti-circuits.  With
    states 2e + FORWARD (at head(e)) and 2e + BACKWARD (at tail(e)), they
    are the cycles of one successor list, each read twice: every arc has
    one head link and one tail link and an anti-circuit alternates them,
    so it has even length, and its two traversals are distinct cycles (a
    cycle that is its own reverse would step from an arc to itself).
    """
    if not d.is_two_in_two_out:
        raise ValueError("anti-circuits are defined for 2-in/2-out digraphs")
    if d.free_loops:
        raise ValueError("free loops are not part of anti-circuit decompositions")
    succ = [0] * (2 * len(d.arcs))
    for (i1, i2), (o1, o2) in zip(d.in_lists, d.out_lists):
        succ[2 * i1 + FORWARD] = 2 * i2 + BACKWARD
        succ[2 * i2 + FORWARD] = 2 * i1 + BACKWARD
        succ[2 * o1 + BACKWARD] = 2 * o2 + FORWARD
        succ[2 * o2 + BACKWARD] = 2 * o1 + FORWARD
    return len(_cycles(succ, range(len(succ)))) // 2


# -- vertex resolution (the circuit-partition recursion step) ---------------


def resolve_vertex(
    d: BalancedDigraph, v: int, pairing: Sequence[int]
) -> BalancedDigraph:
    """Resolve vertex v: unite each in-arc with the paired out-arc and
    delete v.  ``pairing`` is a permutation p of range(deg(v)): the i-th
    in-arc of v, in arc-id order, joins the p[i]-th out-arc.  Chains of
    loops at v collapse; a cycle living entirely in loops at v becomes a
    free loop.  Circuit partitions satisfy r(D) = sum of r over the
    resolutions at any one vertex.
    """
    if not 0 <= v < d.order:
        raise ValueError(f"vertex {v} out of range")
    in_list, out_list = d.in_lists[v], d.out_lists[v]
    if sorted(pairing) != list(range(len(in_list))):
        raise ValueError("pairing must be a permutation of the arc ends")
    follow = {in_list[i]: out_list[p] for i, p in enumerate(pairing)}
    loops = set(in_list) & set(out_list)
    arcs = []
    # walk chains entering v from outside, taking the loops they pass
    for e in in_list:
        tail = d.arcs[e][0]
        if tail == v:
            continue
        cur = follow[e]
        while cur in loops:
            loops.discard(cur)
            cur = follow[cur]
        arcs.append((tail, d.arcs[cur][1]))
    # the loops left over are closed under follow: each cycle is a free loop
    free = d.free_loops + len(_cycles(follow, loops))
    # arcs not touching v survive unchanged, with v compacted away
    arcs += [(t, h) for t, h in d.arcs if v not in (t, h)]
    arcs = [(t - (t > v), h - (h > v)) for t, h in arcs]
    return BalancedDigraph(d.order - 1, arcs, free)


# -- exhaustive word enumeration --------------------------------------------


def canonical_word_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical double occurrence words on n symbols, as tuples.

    Enumerates linear arrangements that start with symbol 0 and keeps
    exactly the canonical rotation of each cyclic word.
    """
    if n < 0:
        raise ValueError(f"symbol count must be >= 0, got {n}")
    if n == 0:
        yield ()
        return
    counts = [1] + [2] * (n - 1)
    length = 2 * n - 1
    word = [0] * (2 * n)

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos > length:
            w = tuple(word)
            if _canonical_rotation(w) == w:
                yield w
            return
        for s in range(n):
            if counts[s]:
                counts[s] -= 1
                word[pos] = s
                yield from rec(pos + 1)
                counts[s] += 1

    yield from rec(1)

