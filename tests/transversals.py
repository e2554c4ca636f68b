"""Brute-force minimal transversals: the reference for Alexander duals.

The library reads duals off the corners of a staircase in the {0,1}
box on the variables of the generator supports, or off the irreducible
decomposition past its limit.  This walks vertex subsets by size
instead and keeps each one that meets every generator support and
contains no smaller hit, so it shares nothing with the engine it
checks.
"""

import itertools

from minimalizers import reference_minimalize, support_vector

from covertool.monomials import MonomialIdeal, unit_ideal, zero_ideal


def reference_dual(I: MonomialIdeal) -> MonomialIdeal:
    """The Alexander dual of a square-free ideal, by exhaustive search."""
    assert I.is_squarefree
    if I.is_unit:
        return zero_ideal(I.ambient)
    if I.is_zero:
        return unit_ideal(I.ambient)
    supports = [{i for i, e in enumerate(g) if e} for g in I.gens]
    universe = sorted(set().union(*supports))
    kept: list[set[int]] = []
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            s = set(combo)
            if any(k <= s for k in kept):
                continue
            if all(s & supp for supp in supports):
                kept.append(s)
    n = I.nvars
    return reference_minimalize(I.ambient, [support_vector(s, n) for s in kept])


def edge_ideal(h) -> MonomialIdeal:
    """The square-free ideal generated by the edges of a (hyper)graph."""
    return reference_minimalize(
        h.vertices,
        [support_vector([h.vertices.index(v) for v in e], h.n) for e in h.edges],
    )
