"""Extremal values, the polynomial census, and the shape conjectures.

How large or small can q(G;1) be for a graph of a given order or size?
Which value classes does the polynomial carve out of the set of graphs?
Are the coefficient sequences always unimodal?  This demo reproduces the
answers on desk-scale universes.

Run:  python3 demos/04_extremal_landscape.py
"""

from collections import Counter

from interlacepoly import (
    interlace_polynomial,
    is_unimodal,
    run_conjecture_suite,
    run_extremal_suite,
)
from interlacepoly.enumeration import evaluate
from interlacepoly.graphs import cycle_graph, path_graph, star_graph
from interlacepoly.interlace import solid_graph
from interlacepoly.polynomials import is_log_concave

# ---------------------------------------------------------------------------
# the landscape of q(1) at order 6
# ---------------------------------------------------------------------------

n = 6
values = Counter(int(v) for v in evaluate(n, 1))
print(f"distribution of q(1) over all {2**15} labeled graphs of order {n}:")
for value in sorted(values):
    print(f"   q(1) = {value:3d}: {values[value]} graphs")
print("maximum 2^(n-1) =", 2 ** (n - 1), "(complete graph only);"
      " second-largest = 3/4 of it (solid path graphs)")
print()

# a solid path graph attaining the second maximum
sp = solid_graph(path_graph(2), [2, 2, 2])
print("solid P_2 graph with class sizes (2,2,2): q(1) =",
      interlace_polynomial(sp).evaluate(1), "= 3/4 * 2^5")
print()

# ---------------------------------------------------------------------------
# the extremal suite: bounds + equality characterizations
# ---------------------------------------------------------------------------

rep = run_extremal_suite(n_max=5)
two_term = [v for v in rep.violations if "two-term" in v["detail"]]
other = [v for v in rep.violations if "two-term" not in v["detail"]]
print(f"extremal suite at n <= 5: {rep.checked} checks")
print(f"  bound/equality violations: {len(other)} (all proved claims hold)")
print(f"  two-term classification violations: {len(two_term)}")
print()
print("the two-term classification is genuinely false; the smallest")
print("counterexamples are cycles:")
for k in (4, 5):
    q = interlace_polynomial(cycle_graph(k))
    print(f"   q(C_{k}) = {q}  -- two nonzero terms, but C_{k} is no solid path")
print()

# ---------------------------------------------------------------------------
# coefficient shapes: unimodality evidence and the log-concavity witness
# ---------------------------------------------------------------------------

rep = run_conjecture_suite(n_max=5, random_samples=300, random_max_order=11, seed=20)
print(f"conjecture suite (exhaustive n <= 5 + 300 random graphs to n = 11):")
print(f"  {rep.checked} checks, {len(rep.violations)} unimodality violations")

witness = interlace_polynomial(star_graph(3))
print(f"q(K_13) = {witness}: unimodal?",
      is_unimodal(witness),
      "log-concave?", is_log_concave(witness))
print("(so unimodality cannot be proved via log-concavity: it fails already here)")
