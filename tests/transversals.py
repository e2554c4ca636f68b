"""Brute-force minimal transversals: the reference for Alexander duals.

The library reads duals off the irreducible decomposition.  This walks
vertex subsets by size instead and keeps each one that meets every
generator support and contains no smaller hit, so it shares nothing
with the engine it checks.
"""

import itertools

from covertool.monomials import (
    MonomialIdeal,
    minimalize,
    support_vector,
    unit_ideal,
    zero_ideal,
)


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
    return minimalize(I.ambient, [support_vector(s, n) for s in kept])


def edge_ideal(h) -> MonomialIdeal:
    """The square-free ideal generated by the edges of a (hyper)graph."""
    return minimalize(
        h.vertices,
        [support_vector([h.index(v) for v in e], h.n) for e in h.edges],
    )
