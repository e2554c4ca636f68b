"""Partial t-cover ideals of graphs: exact associated-prime machinery.

The package splits into a graph layer (graphs), an exact monomial-ideal
engine (monomials) with its two decomposition kernels, the bit-parallel
exponent box (staircase) and the incremental loop (loop), the
cover-ideal constructions (covers), associated prime analysis with
closed-form predictions and witnesses (associated), the hypergraph
chromatic-gap family (hypercovers), the immutable record base of the
value classes (record), the fixed test corpus (catalog) and a
command-line front end (cli).
"""

from .associated import (
    AssReport,
    StabilityReport,
    WitnessCertificate,
    ass_of_power,
    astab_tree,
    build_star_witness,
    connectivity_check,
    empirical_astab,
    localization_check,
    max_ideal_in_ass_star,
    oracle_sweep,
    predict_ass_star,
    predict_ass_tree,
    tail_contradicts_astab,
    verify_annihilator_divisibility,
)
from .covers import (
    classify_tree_generators,
    enumerate_minimal_partial_covers,
    generalized_edge_ideal,
    is_partial_cover,
    partial_cover_ideal,
    star_generators,
)
from .graphs import (
    Graph,
    Hypergraph,
    ParseError,
    broom,
    cycle_graph,
    double_star,
    enumerate_induced_stars,
    find_special_vertex,
    graph_to_text,
    hypergraph_to_text,
    parse_graph,
    parse_hypergraph,
    path_graph,
    spider,
    star_graph,
    star_shape,
)
from .hypercovers import (
    GapReport,
    build_gap_family,
    chromatic_number,
    find_coloring,
    hypergraph_cover_ideal,
    verify_gap,
)
from .monomials import (
    IrreducibleComponent,
    MonomialIdeal,
    MonomialPrime,
    alexander_dual,
    associated_primes,
    associated_primes_of_powers,
    colon,
    contains,
    ideal_power,
    irreducible_decomposition,
    minimalize,
    monomial_from_str,
    monomial_str,
    power_contains,
    power_primes,
    prime_str,
    sorted_primes,
    witness_search,
)

__version__ = "0.1.0"
