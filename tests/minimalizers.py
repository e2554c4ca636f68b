"""Pairwise minimalization: the reference for minimal generating sets.

The library packs exponent vectors into ints and compares each candidate
only with the kept vectors of smaller degree.  This compares plain
tuples, every candidate against every other one, and keeps those no
other candidate divides, so it shares nothing with the engine it checks.
"""

from operator import le

from covertool.monomials import MonomialIdeal


def _divides(a, b):
    return all(map(le, a, b))


def reference_minimalize(ambient, vectors) -> MonomialIdeal:
    """The ideal generated by exponent vectors, in the library's order
    (by degree, then the earliest variable with the larger exponent)."""
    candidates = set(vectors)
    minimal = [
        e
        for e in candidates
        if not any(d != e and _divides(d, e) for d in candidates)
    ]
    minimal.sort(key=lambda e: (sum(e), [-x for x in e]))
    return MonomialIdeal(tuple(ambient), tuple(minimal))


def reference_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    return reference_minimalize(
        I.ambient,
        [
            tuple(a + b for a, b in zip(g, h))
            for g in I.gens
            for h in J.gens
        ],
    )


def reference_power(I: MonomialIdeal, s: int) -> MonomialIdeal:
    """I^s for s >= 1, reduced after each multiplication."""
    power = I
    for _ in range(s - 1):
        power = reference_product(power, I)
    return power


def reference_intersection(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    return reference_minimalize(
        I.ambient,
        [
            tuple(max(a, b) for a, b in zip(g, h))
            for g in I.gens
            for h in J.gens
        ],
    )


def reference_colon(I: MonomialIdeal, t) -> MonomialIdeal:
    return reference_minimalize(
        I.ambient,
        [tuple(max(a - b, 0) for a, b in zip(g, t)) for g in I.gens],
    )
