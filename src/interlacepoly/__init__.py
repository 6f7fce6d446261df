"""interlacepoly: exact interlace-polynomial computation and verification.

The interlace polynomial q(G) of a simple graph is defined by the pivot
reduction q(G) = q(G-a) + q(G^{ab}-b) over any edge ab, with q = x^n on
the edgeless graph of order n.  For the interlace graph H of an Euler
circuit of a 2-in/2-out digraph D, q(H;1) counts the Euler circuits of D
and x q(H;1+x) is the circuit partition polynomial r(D;x).

The package computes all of these exactly (arbitrary-precision integer
arithmetic throughout), provides the closed forms and the substitution /
duplication / rotation calculus, and ships exhaustive verification
suites over all labeled graphs of order <= 7 and all double occurrence
words of <= 6 symbols.
"""

from .graphs import (
    Graph,
    NotAnEdgeError,
    TooLargeError,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    component_count,
    cycle_graph,
    delete_vertex,
    disjoint_union,
    edgeless_graph,
    format_edge_list,
    from_graph6,
    independence_number,
    induced_subgraph,
    is_connected,
    label_swap,
    matching_number,
    parse_edge_list,
    path_graph,
    pivot,
    relabel,
    star_graph,
    substitute,
    to_graph6,
)
from .interlace import (
    clique_substitution_polynomial,
    complete_bipartite_polynomial,
    complete_multipartite_polynomial,
    complete_polynomial,
    cycle_polynomial,
    edgeless_polynomial,
    interlace_polynomial,
    path_polynomial,
    rotate,
    solid_graph,
    star_polynomial,
    thick_graph,
    vertex_duplication_polynomial,
    vertex_multiplication_polynomial,
)
from .euler import (
    BalancedDigraph,
    CircuitPartition,
    DisconnectedError,
    DoubleOccurrenceWord,
    NotInterlacedError,
    anti_circuit_count,
    circuit_partition_of,
    circuit_partition_polynomial,
    circuit_transposition_orbit,
    digraph_from_word,
    euler_circuit_count_best,
    euler_circuits_brute,
    interlace_graph,
    interlaced,
    loops_digraph,
    martin_polynomial,
    resolve_vertex,
    transition_systems,
    transpose,
    word_of_circuit,
)
from .polynomials import (
    IntPolynomial,
    NegativeCoefficientError,
    NonzeroRemainderError,
    circuit_coeffs_from_interlace,
    interlace_coeffs_from_circuit,
    is_log_concave,
    is_unimodal,
)
from .suites import (
    VerificationReport,
    run_conjecture_suite,
    run_extremal_suite,
    run_identity_suite,
    run_orbit_suite,
)

__version__ = "0.1.0"
