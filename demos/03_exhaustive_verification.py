"""Exhaustive machine verification of the identity zoo.

Every identity the library relies on is re-checked instance by instance
over complete universes: all 2^C(n,2) labeled graphs of order <= n, all
double occurrence words of <= k symbols.  The vectorized coefficient
tables make order 7 (2,097,152 graphs) a couple of minutes of work; this
demo runs the smaller CI scales so it finishes in seconds.

Run:  python3 demos/03_exhaustive_verification.py
"""

import json

from interlacepoly import (
    run_identity_suite,
    run_orbit_suite,
)
from interlacepoly.enumeration import coefficient_table, evaluate, graph_of_mask

# ---------------------------------------------------------------------------
# the coefficient table: q for every labeled graph of one order at once
# ---------------------------------------------------------------------------

rows = coefficient_table(5)
print(f"order 5: {len(rows)} labeled graphs,",
      "coefficient table shape", rows.shape)
print("q(2) = 32 for every one of them:",
      bool((evaluate(5, 2) == 32).all()))

# a random row, decoded
mask = 0b1010011
g = graph_of_mask(5, mask)
print(f"mask {mask:#09b} -> edges {sorted(g.edges())} -> coeffs",
      tuple(int(c) for c in rows[mask]))
print()

# ---------------------------------------------------------------------------
# identity suite: pivot reduction, invariance, multiplicativity, bounds ...
# ---------------------------------------------------------------------------

rep = run_identity_suite(n_max=5, word_samples=200, seed=20)
print(f"identity suite (all graphs of order <= 5, 200 seeded words):")
print(f"  {rep.checked} individual checks, {len(rep.violations)} violations,"
      f" {rep.elapsed_ms} ms")

# ---------------------------------------------------------------------------
# orbit suite: Euler circuits form one transposition orbit, and the
# interlace-graph / digraph partitions are consistent
# ---------------------------------------------------------------------------

rep = run_orbit_suite(max_symbols=5)
print(f"orbit suite (all words of <= 5 symbols):")
print(f"  {rep.checked} individual checks, {len(rep.violations)} violations,"
      f" {rep.elapsed_ms} ms")
print()

# reports serialize to a fixed JSON schema for scripting
print("report as JSON:")
print(json.dumps({**rep.to_json_dict(), "elapsed_ms": "..."}, indent=2))

print()
print("full scale (the numbers quoted in the README):")
print("  run_identity_suite(n_max=7)   - all 2,097,152 order-7 graphs")
print("  run_orbit_suite(max_symbols=6) - 623,760 six-symbol words, plus all shorter")
print("or from the shell:")
print("  interlacepoly verify identities --n-max 7 --words-n-max 6")
