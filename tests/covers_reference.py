"""Prime-by-prime intersection: the reference for J_t.

The library reads J_t(G) off the Alexander dual of the closed t-star
products, as the minimal transversals of the stars on a staircase.
This builds it from the definition instead, intersecting the primes
<x, S> one at a time with the pairwise references of
`tests/minimalizers.py`, so it never touches the staircase, the
decomposition engine that the dual goes through or the packed
minimalizer.
"""

import itertools

from minimalizers import reference_intersection, reference_minimalize, support_vector

from covertool.monomials import unit_ideal


def reference_cover_ideal(g, t):
    """J_t(g) as the intersection over vertices x and t-subsets S of N(x)
    of the prime <x, S>; the unit ideal when no vertex has degree >= t."""
    result = unit_ideal(g.vertices)
    for x in g.vertices:
        for subset in itertools.combinations(g.neighbors(x), t):
            prime = reference_minimalize(
                g.vertices,
                [support_vector([g.index(v)], g.n) for v in (x, *subset)],
            )
            result = reference_intersection(result, prime)
    return result
