"""Recursive splitting: the reference for irreducible decompositions.

The library adds generators one at a time and keeps the maximal
component vectors.  This splits the first generator that is not a pure
power as x_i^a * v instead, recurses on the two enlarged ideals and
merges the results, so it shares nothing with the engine it checks.
"""

from covertool.monomials import IrreducibleComponent, MonomialIdeal

# A component <x_i^{e_i}> is a full-length vector with _INF marking
# absent variables; C contains D exactly when C's vector is <= D's.
_INF = float("inf")


def _canon_key(e):
    return (sum(e), tuple(-x for x in e))


def _with_gen(gens, g):
    """Add one generator to an already-minimal canonical tuple."""
    if any(all(x <= y for x, y in zip(k, g)) for k in gens):
        return gens
    rest = [k for k in gens if not all(x <= y for x, y in zip(g, k))]
    return tuple(sorted(rest + [g], key=_canon_key))


def _merge_irredundant(a, b):
    """Minimal elements of two internally irredundant component sets."""
    sa, sb = set(a), set(b)
    common = sa & sb
    kept = list(common)
    for c in sa - common:
        if not any(all(x <= y for x, y in zip(c, d)) for d in b):
            kept.append(c)
    for c in sb - common:
        if not any(all(x <= y for x, y in zip(c, d)) for d in a):
            kept.append(c)
    return tuple(sorted(kept))


def _split(gens, nvars, memo):
    cached = memo.get(gens)
    if cached is not None:
        return cached
    split = None
    for g in gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) > 1:
            split = (g, support[0])
            break
    if split is None:
        # Every generator is a pure power: the ideal is irreducible.
        vec = [_INF] * nvars
        for g in gens:
            for i, e in enumerate(g):
                if e:
                    vec[i] = e
        result = (tuple(vec),)
    else:
        g, i = split
        pure = tuple(g[i] if j == i else 0 for j in range(len(g)))
        rest = tuple(0 if j == i else e for j, e in enumerate(g))
        result = _merge_irredundant(
            _split(_with_gen(gens, pure), nvars, memo),
            _split(_with_gen(gens, rest), nvars, memo),
        )
    memo[gens] = result
    return result


def reference_decomposition(I: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The irredundant irreducible decomposition of a proper nonzero ideal,
    in the library's order (by support size, then bounds)."""
    assert not I.is_zero and not I.is_unit
    vecs = _split(I.gens, I.nvars, {})
    comps = [tuple((i, e) for i, e in enumerate(v) if e != _INF) for v in vecs]
    return tuple(
        IrreducibleComponent(c) for c in sorted(comps, key=lambda c: (len(c), c))
    )
