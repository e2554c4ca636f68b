"""Prime-by-prime intersection: the reference for J_t.

The library reads J_t(G) off the Alexander dual of the closed t-star
products.  This builds it from the definition instead, intersecting the
primes <x, S> one at a time, so it never touches the decomposition
engine that the dual goes through.
"""

import itertools

from covertool.monomials import (
    ideal_intersection,
    minimalize,
    support_vector,
    unit_ideal,
)


def reference_cover_ideal(g, t):
    """J_t(g) as the intersection over vertices x and t-subsets S of N(x)
    of the prime <x, S>; the unit ideal when no vertex has degree >= t."""
    result = unit_ideal(g.vertices)
    for x in g.vertices:
        for subset in itertools.combinations(g.neighbors(x), t):
            prime = minimalize(
                g.vertices,
                [support_vector([g.index(v)], g.n) for v in (x, *subset)],
            )
            result = ideal_intersection(result, prime)
    return result
