"""Exact monomial-ideal arithmetic over a fixed ordered variable set.

Everything is integer-exact and field-independent: monomials are dense
exponent vectors, ideals are minimal generating sets in a canonical
order, and associated primes are read off an irredundant irreducible
decomposition.  This module is the ground truth the closed-form
predictions elsewhere in the package are tested against, so it never
consults graph structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import le


@dataclass(frozen=True)
class Monomial:
    """A monomial as a dense exponent vector; the all-zero vector is 1."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError(f"negative exponent in {self.exps}")

    @classmethod
    def one(cls, nvars: int) -> Monomial:
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> Monomial:
        return cls(tuple(1 if j == i else 0 for j in range(nvars)))

    @classmethod
    def from_map(cls, exps: dict[int, int], nvars: int) -> Monomial:
        return cls(tuple(exps.get(j, 0) for j in range(nvars)))

    @classmethod
    def from_support(cls, indices, nvars: int) -> Monomial:
        return cls.from_map({i: 1 for i in indices}, nvars)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def divides(self, other: Monomial) -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps, strict=True))

    def __mul__(self, other: Monomial) -> Monomial:
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps, strict=True)))

    def lcm(self, other: Monomial) -> Monomial:
        return Monomial(
            tuple(max(a, b) for a, b in zip(self.exps, other.exps, strict=True))
        )

    def colon(self, other: Monomial) -> Monomial:
        """self / gcd(self, other): the monomial quotient used by ideal colons."""
        return Monomial(
            tuple(max(a - b, 0) for a, b in zip(self.exps, other.exps, strict=True))
        )


@dataclass(frozen=True)
class MonomialPrime:
    """A prime generated by variables, identified with its index support."""

    support: frozenset[int]

    def __post_init__(self):
        if not self.support:
            raise ValueError("a monomial prime needs a nonempty support")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))

    def labels(self, ambient: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(ambient[i] for i in self.indices)

    def as_ideal(self, ambient: tuple[str, ...]) -> MonomialIdeal:
        n = len(ambient)
        return minimalize(ambient, [Monomial.variable(i, n) for i in self.indices])


@dataclass(frozen=True)
class IrreducibleComponent:
    """An irreducible monomial ideal <x_i^{e_i} : i in support>."""

    bounds: tuple[tuple[int, int], ...]  # (variable index, exponent >= 1), sorted

    def __post_init__(self):
        if any(e < 1 for _, e in self.bounds):
            raise ValueError("irreducible component bounds must be >= 1")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.bounds)

    def as_ideal(self, ambient: tuple[str, ...]) -> MonomialIdeal:
        n = len(ambient)
        return minimalize(
            ambient, [Monomial.from_map({i: e}, n) for i, e in self.bounds]
        )


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating set.

    Generators are sorted by (total degree, exponent vector); the unit
    ideal is {1} and the zero ideal has no generators.  Build instances
    through `minimalize` or the ideal operations, not directly.
    """

    ambient: tuple[str, ...]
    gens: tuple[Monomial, ...]

    @property
    def nvars(self) -> int:
        return len(self.ambient)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def __str__(self) -> str:
        return ideal_str(self)


# Internal helpers work on raw exponent tuples to keep hot paths light.

def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _canon_key(e: tuple[int, ...]):
    # Degree first, then reverse-lexicographic on exponents, so that
    # among equals the generator touching the earliest variable prints
    # first (x1*x2 before x1*x3 before x2*x3).
    return (sum(e), tuple(-x for x in e))


def _minimalize_exps(exps_list) -> tuple[tuple[int, ...], ...]:
    """Drop every vector strictly divisible by another; sort canonically."""
    kept: list[tuple[int, ...]] = []
    for e in sorted(set(exps_list), key=_canon_key):
        if not any(_divides(k, e) for k in kept):
            kept.append(e)
    return tuple(kept)


def minimalize(ambient, gens) -> MonomialIdeal:
    """The ideal generated by `gens`, reduced to minimal generators."""
    ambient = tuple(ambient)
    n = len(ambient)
    for g in gens:
        if len(g.exps) != n:
            raise ValueError(f"monomial {g.exps} does not live in {n} variables")
    minimal = _minimalize_exps([g.exps for g in gens])
    return MonomialIdeal(ambient, tuple(Monomial(e) for e in minimal))


def zero_ideal(ambient) -> MonomialIdeal:
    return MonomialIdeal(tuple(ambient), ())


def unit_ideal(ambient) -> MonomialIdeal:
    ambient = tuple(ambient)
    return MonomialIdeal(ambient, (Monomial.one(len(ambient)),))


def _check_same_ambient(I: MonomialIdeal, J: MonomialIdeal):
    if I.ambient != J.ambient:
        raise ValueError(f"ambient mismatch: {I.ambient} vs {J.ambient}")


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ambient(I, J)
    prods = {
        tuple(a + b for a, b in zip(g.exps, h.exps))
        for g in I.gens
        for h in J.gens
    }
    return MonomialIdeal(I.ambient, tuple(Monomial(e) for e in _minimalize_exps(prods)))


@lru_cache(maxsize=None)
def ideal_power(I: MonomialIdeal, s: int) -> MonomialIdeal:
    """I^s, minimalizing after each multiplication to control blowup."""
    if s < 0:
        raise ValueError("negative power")
    if s == 0:
        return unit_ideal(I.ambient)
    if s == 1:
        return I
    return ideal_product(ideal_power(I, s - 1), I)


def ideal_intersection(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ambient(I, J)
    lcms = {
        tuple(max(a, b) for a, b in zip(g.exps, h.exps))
        for g in I.gens
        for h in J.gens
    }
    return MonomialIdeal(I.ambient, tuple(Monomial(e) for e in _minimalize_exps(lcms)))


def colon(I: MonomialIdeal, t: Monomial) -> MonomialIdeal:
    """The quotient I : <t>, computed generator by generator."""
    if len(t.exps) != I.nvars:
        raise ValueError("colon monomial lives in the wrong number of variables")
    return minimalize(I.ambient, [g.colon(t) for g in I.gens])


def contains(I: MonomialIdeal, m: Monomial) -> bool:
    if len(m.exps) != I.nvars:
        raise ValueError("membership test in the wrong number of variables")
    return any(g.divides(m) for g in I.gens)


def ideal_contains_ideal(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Whether J is a subset of I (every generator of J lies in I)."""
    _check_same_ambient(I, J)
    return all(contains(I, g) for g in J.gens)


# Inside the decomposition, an irreducible component <x_i^{e_i}> is a
# full-length exponent vector in which `top`, one more than the largest
# exponent of the ideal, marks an absent variable.  A component C
# contains D exactly when the vector of C lies pointwise below the
# vector of D, so C is then redundant in the intersection.

def _decompose(gens, nvars, top):
    """Irredundant component vectors, adding generators one at a time.

    A component that already contains the next generator g is kept; any
    other component is replaced by its tightenings at the variables of
    g.  Only the pointwise-maximal vectors survive each step.
    """
    comps = [(top,) * nvars]
    for g in gens:
        support = [(i, e) for i, e in enumerate(g) if e]
        kept, new = [], set()
        for c in comps:
            if any(e >= c[i] for i, e in support):
                kept.append(c)
            else:
                new.update(c[:i] + (e,) + c[i + 1:] for i, e in support)
        pool = kept + list(new)
        comps = kept + [
            c
            for c in new
            if not any(c != d and all(map(le, c, d)) for d in pool)
        ]
    return comps


@lru_cache(maxsize=None)
def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """An irredundant list of irreducible ideals intersecting to I."""
    if I.is_zero:
        raise ValueError("the zero ideal has no irreducible decomposition here")
    if I.is_unit:
        raise ValueError("the unit ideal has no irreducible decomposition")
    top = 1 + max(max(g.exps) for g in I.gens)
    vecs = _decompose(tuple(g.exps for g in I.gens), I.nvars, top)
    comps = [tuple((i, e) for i, e in enumerate(v) if e != top) for v in vecs]
    ordered = sorted(comps, key=lambda c: (len(c), c))
    return tuple(IrreducibleComponent(c) for c in ordered)


def associated_primes(I: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Ass(I): the supports of the irredundant irreducible components."""
    if I.is_zero or I.is_unit:
        raise ValueError("associated primes are computed for proper nonzero ideals")
    return frozenset(
        MonomialPrime(c.support) for c in irreducible_decomposition(I)
    )


def witness_search(I: MonomialIdeal, P: MonomialPrime) -> Monomial | None:
    """Exhaustive search for a monomial T with I : <T> = P.

    The search box bounds each exponent of T by (max exponent of that
    variable over the generators) * (number of generators).  This is an
    engineering bound for desk-scale cross-checks, not a theorem; any
    hit is certified on the spot by the colon computation, and absence
    is meaningful only relative to the box.
    """
    if I.is_zero or I.is_unit:
        raise ValueError("witness search needs a proper nonzero ideal")
    n = I.nvars
    count = len(I.gens)
    bounds = [max(g.exps[i] for g in I.gens) * count for i in range(n)]
    want = P.support
    gens = I.gens
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        t = Monomial(exps)
        if any(g.divides(t) for g in gens):
            continue  # t in I, colon is the unit ideal
        quotients = [g.colon(t) for g in gens]
        # I : <t> equals P exactly when each variable of P appears as a
        # generator and every quotient is divisible by one of them.
        if not all(any(q.exps[i] for i in want) for q in quotients):
            continue
        pure = {q.support[0] for q in quotients if q.degree == 1}
        if pure == want:
            return t
    return None


def alexander_dual(I: MonomialIdeal) -> MonomialIdeal:
    """The Alexander dual of a square-free ideal.

    Generators are the minimal transversals of the generator supports.
    The irreducible components of a square-free ideal are exactly the
    primes on those transversals, so the dual is read off the
    decomposition; it is an involution on square-free ideals.
    """
    if not I.is_squarefree:
        raise ValueError("Alexander duality is defined for square-free ideals only")
    if I.is_unit:
        return zero_ideal(I.ambient)
    if I.is_zero:
        return unit_ideal(I.ambient)
    n = I.nvars
    return minimalize(
        I.ambient,
        [Monomial.from_support(c.support, n) for c in irreducible_decomposition(I)],
    )


# Serialization: `x1^2*x3` style, exponent 1 elided, `1` for the empty
# monomial; ideals render as a bracketed generator list.

def monomial_str(m: Monomial, ambient: tuple[str, ...]) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(ambient, m.exps)
        if e > 0
    ]
    return "*".join(parts) if parts else "1"


def monomial_from_str(text: str, ambient: tuple[str, ...]) -> Monomial:
    n = len(ambient)
    if text.strip() == "1":
        return Monomial.one(n)
    exps: dict[int, int] = {}
    for part in text.split("*"):
        name, _, power = part.strip().partition("^")
        if name not in ambient:
            raise ValueError(f"unknown variable {name!r}")
        i = ambient.index(name)
        exps[i] = exps.get(i, 0) + (int(power) if power else 1)
    return Monomial.from_map(exps, n)


def ideal_str(I: MonomialIdeal) -> str:
    return "[" + ", ".join(monomial_str(g, I.ambient) for g in I.gens) + "]"


def prime_str(P: MonomialPrime, ambient: tuple[str, ...]) -> str:
    return "<" + ", ".join(P.labels(ambient)) + ">"


def sorted_primes(primes) -> list[MonomialPrime]:
    """Canonical report order: by support size, then by index tuple."""
    return sorted(primes, key=lambda p: (len(p.support), p.indices))
