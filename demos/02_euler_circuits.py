"""Euler circuits, circuit partitions, and the bridge to q.

A double occurrence word (each symbol appearing exactly twice, read
cyclically) records the visit order of an Euler circuit of a 2-in/2-out
digraph.  Two symbols are interlaced when they appear as a..b..a..b; the
interlace graph H collects those pairs.  The punchline:

    q(H; 1)      = number of Euler circuits of the digraph
    x q(H; 1+x)  = r(D; x), the circuit partition polynomial
    q(H; x)      = m(D; x), the Martin polynomial

Run:  python3 demos/02_euler_circuits.py
"""

from interlacepoly import (
    DoubleOccurrenceWord,
    anti_circuit_count,
    circuit_partition_of,
    circuit_partition_polynomial,
    circuit_transposition_orbit,
    digraph_from_word,
    euler_circuit_count_best,
    euler_circuits_brute,
    interlace_graph,
    interlace_polynomial,
    label_swap,
    loops_digraph,
    martin_polynomial,
    pivot,
    transition_systems,
    transpose,
)

# ---------------------------------------------------------------------------
# from a word to a digraph and an interlace graph
# ---------------------------------------------------------------------------

w = DoubleOccurrenceWord.parse("1 2 3 1 3 4 2 4")
print("word:", w)
d = digraph_from_word(w)
print("digraph arcs:", list(d.arcs))
h = interlace_graph(w)
print("interlaced pairs (edges of H):",
      [(w.token(a), w.token(b)) for a, b in h.edges()])

q = interlace_polynomial(h)
print("q(H) =", q)
print()

# ---------------------------------------------------------------------------
# three independent ways to count Euler circuits
# ---------------------------------------------------------------------------

print("Euler circuits by brute transition enumeration:",
      len(euler_circuits_brute(d)))
print("Euler circuits by the BEST theorem (arborescence determinant):",
      euler_circuit_count_best(d))
print("q(H; 1) =", q.evaluate(1))
print()

# ---------------------------------------------------------------------------
# transition systems and circuit partitions
# ---------------------------------------------------------------------------

counts = {}
for ts in transition_systems(d):
    k = circuit_partition_of(d, ts).circuit_count
    counts[k] = counts.get(k, 0) + 1
print("partitions into k circuits (2^n transition systems):", counts)
r = circuit_partition_polynomial(d)
print("r(D; x) =", r)
print("x q(H; 1+x) =", q.shift_argument(1).mul_x(), " (the same polynomial)")
print("m(D; x) =", martin_polynomial(d), " (= q(H; x))")
print()

# m loops on one vertex: r is the rising factorial x(x+1)...(x+m-1)
for m in (2, 3, 4):
    print(f"r of {m} loops on one vertex:",
          circuit_partition_polynomial(loops_digraph(m)))
print()

# ---------------------------------------------------------------------------
# anti-circuits and the evaluation at -2
# ---------------------------------------------------------------------------

a = anti_circuit_count(d)
print("anti-circuits:", a)
print("r(D; -2) =", r.evaluate(-2), "= (-1)^(n+a) 2^a =",
      (-1) ** (w.n + a) * 2**a)
print()

# ---------------------------------------------------------------------------
# transpositions: all Euler circuits form a single orbit
# ---------------------------------------------------------------------------

t = transpose(w, 0, 1)
print("transposing on the interlaced pair (1,2):", t)
print("its interlace graph is the pivot on 12 with 1 and 2 swapped:",
      interlace_graph(t) == label_swap(pivot(h, 0, 1), 0, 1))
circuits = circuit_transposition_orbit(w)  # each circuit -> its visit word
print("distinct visit words in the orbit:", len(set(circuits.values())))
print("distinct circuits in the orbit:   ", len(circuits),
      "(equals the Euler circuit count)")

# words can undercount circuits when the digraph has parallel arcs:
tiny = DoubleOccurrenceWord.parse("1 2 1 2")
print()
tiny_circuits = circuit_transposition_orbit(tiny)
print("word '1 2 1 2': ", len(tiny_circuits), "circuits but only",
      len(set(tiny_circuits.values())), "visit word")
