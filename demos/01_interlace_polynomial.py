"""A tour of the interlace polynomial.

The interlace polynomial q(G) is defined on any simple graph by the
pivot reduction

    q(G) = q(G - a) + q(G^{ab} - b)     for any edge ab,
    q(E_n) = x^n                        on edgeless graphs,

where the pivot G^{ab} toggles adjacencies between the three classes of
vertices distinguished by the edge ab.  Remarkably, the result does not
depend on which edges you pick.  This script walks through the basic
objects and the closed forms.

Run:  python3 demos/01_interlace_polynomial.py
"""

from interlacepoly import (
    Graph,
    complete_graph,
    cycle_graph,
    delete_vertex,
    interlace_polynomial,
    path_graph,
    pivot,
    star_graph,
)
from interlacepoly.interlace import (
    complete_bipartite_polynomial,
    complete_multipartite_polynomial,
    cycle_polynomial,
    path_polynomial,
    star_polynomial,
)

# ---------------------------------------------------------------------------
# pivoting by hand: one reduction step on the 4-cycle
# ---------------------------------------------------------------------------

c4 = cycle_graph(4)
print("C_4 edges:", sorted(c4.edges()))

piv = pivot(c4, 0, 1)
print("C_4 pivoted on (0,1):", sorted(piv.edges()))

left = delete_vertex(c4, 0)
right = delete_vertex(piv, 1)
q_left = interlace_polynomial(left)
q_right = interlace_polynomial(right)
print(f"q(C_4) = q(C_4 - 0) + q(C_4^(01) - 1) = ({q_left}) + ({q_right})")
print("       =", interlace_polynomial(c4))
print()

# ---------------------------------------------------------------------------
# the polynomial reads off graph data: order, components, independence
# ---------------------------------------------------------------------------

g = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
q = interlace_polynomial(g)
print("triangle + path, q =", q)
print("  q(2) = 2^order:       ", q.evaluate(2), "= 2^7")
print("  lowest degree = #components:", q.lowest_degree())
print("  degree >= independence number:", q.degree)
print()

# ---------------------------------------------------------------------------
# closed forms for the classical families
# ---------------------------------------------------------------------------

print("complete graphs:   q(K_n) = 2^(n-1) x")
for n in range(1, 6):
    print(f"   K_{n}: {interlace_polynomial(complete_graph(n))}")

print("stars:             q(K_1n) = 2x + x^2 + ... + x^n")
for n in range(2, 6):
    assert interlace_polynomial(star_graph(n)) == star_polynomial(n)
    print(f"   K_1{n}: {star_polynomial(n)}")

print("paths (P_n has n edges): q(P_n) = q(P_n-1) + x q(P_n-2)")
for n in range(6):
    assert interlace_polynomial(path_graph(n)) == path_polynomial(n)
    print(f"   P_{n}: {path_polynomial(n)}")

print("cycles:")
for n in range(3, 8):
    assert interlace_polynomial(cycle_graph(n)) == cycle_polynomial(n)
    print(f"   C_{n}: {cycle_polynomial(n)}")

print("complete multipartite, e.g. K_{2,2,3}:",
      complete_multipartite_polynomial([2, 2, 3]))
print("complete bipartite K_{3,4}:", complete_bipartite_polynomial(3, 4))
print()

# ---------------------------------------------------------------------------
# evaluating at 1 counts Euler circuits of an associated digraph, and the
# path values are Fibonacci numbers
# ---------------------------------------------------------------------------

print("q(P_n; 1) for n = 0..10:",
      [path_polynomial(n).evaluate(1) for n in range(11)])
print("(the Fibonacci numbers F_{n+2})")
