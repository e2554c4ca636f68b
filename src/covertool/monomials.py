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
import math
import operator
from functools import lru_cache

from .record import Record, _set
from .staircase import Box, _box_powers, _staircase, transversals


class MonomialPrime(Record):
    """A prime generated by variables, identified with its index support."""

    __slots__ = ("support",)

    def __init__(self, support: frozenset[int]):
        if not support:
            raise ValueError("a monomial prime needs a nonempty support")
        _set(self, "support", support)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.support == other.support

    def __hash__(self):
        return hash((self.support,))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))

    def labels(self, ambient: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(ambient[i] for i in self.indices)

    def as_ideal(self, ambient: tuple[str, ...]) -> MonomialIdeal:
        return _squarefree(ambient, [(ambient[i],) for i in self.indices])


class IrreducibleComponent(Record):
    """An irreducible monomial ideal <x_i^{e_i} : i in support>."""

    __slots__ = ("bounds",)  # (variable index, exponent >= 1), sorted

    def __init__(self, bounds: tuple[tuple[int, int], ...]):
        if any(e < 1 for _, e in bounds):
            raise ValueError("irreducible component bounds must be >= 1")
        _set(self, "bounds", bounds)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.bounds)

    def as_ideal(self, ambient: tuple[str, ...]) -> MonomialIdeal:
        n = len(ambient)
        return minimalize(
            ambient,
            [tuple(e if j == i else 0 for j in range(n)) for i, e in self.bounds],
        )


class MonomialIdeal(Record):
    """A monomial ideal held as its unique minimal generating set.

    Each generator is a tuple of exponents, one per variable of the
    ambient in order; the all-zero tuple is 1.  Generators are sorted
    by (total degree, exponent vector); the unit ideal is {1} and the
    zero ideal has no generators.  Build instances through `minimalize`
    or the ideal operations, not directly.  The engine holds the powers
    it builds apart from this class, one generator per orbit (see
    `_powers`).
    """

    __slots__ = ("ambient", "gens")

    @property
    def nvars(self) -> int:
        return len(self.ambient)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    def __str__(self) -> str:
        return ideal_str(self)


# The comparison-heavy loops, minimalization, the incremental
# decomposition (`loop`) and the membership search, pack each vector
# into one int: exponent i sits in field i, bits [i*w, (i+1)*w), whose
# top bit is a guard bit no exponent reaches.  With H the mask of all
# guard bits, k <= e pointwise exactly when ((e | H) - k) & H == H:
# each field computes guard + e_i - k_i, which never borrows from the
# next field and keeps its guard bit iff k_i <= e_i.

def _layout(bound: int, nvars: int) -> tuple[int, int]:
    """Field width and guard mask for vectors with entries <= bound: the
    bit length of bound plus one guard bit, so no entry can overflow."""
    width = bound.bit_length() + 1
    guard = 1 << (width - 1)
    return width, sum(guard << (i * width) for i in range(nvars))


def _pack(e: tuple[int, ...], width: int) -> int:
    packed = 0
    for x in reversed(e):
        packed = (packed << width) | x
    return packed


class _Slots:
    """Many packed vectors in one int, one byte-aligned slot each.

    A slot holds a vector's packed fields and, above them, a slot-guard
    bit, the slot rounded up to whole bytes so that a list of vectors is
    packed with one join.  With `rep` a 1 in the lowest bit of every
    slot, p * rep holds p in every slot, so one subtraction compares a
    vector with all of them.  A field keeps its guard bit in such a
    difference where the comparison held, so a slot of `x & guards`
    equals the field guards of the slot exactly when it held in every
    field, and only then does adding `fill`, the slot guard less the
    field guards, carry into the slot guard: `((x & guards) + fill) &
    slot_guards` has one set bit per such slot, counted by
    `bit_count()`.
    """

    def __init__(self, width: int, nvars: int, H: int):
        self.size = nvars * width // 8 + 1  # bytes per slot, slot guard included
        self.bits = 8 * self.size
        self.H = H

    def pack(self, packed) -> int:
        """The vectors of `packed`, in order, from slot 0 up."""
        size = self.size
        return int.from_bytes(
            b"".join(p.to_bytes(size, "little") for p in packed), "little"
        )

    def masks(self, count: int) -> tuple[int, int, int, int]:
        """`rep`, the field guards, `fill` and the slot guards of `count`
        slots."""
        rep = int.from_bytes((b"\1" + bytes(self.size - 1)) * count, "little")
        guards, slot_guards = self.H * rep, rep << (self.bits - 1)
        return rep, guards, slot_guards - guards, slot_guards

    def flags(self, marks: int, count: int) -> bytes:
        """One byte per slot of `count`, nonzero where `marks` has the
        slot guard set."""
        return marks.to_bytes(count * self.size, "little")[self.size - 1 :: self.size]


def _canon_key(e: tuple[int, ...]):
    # Degree first, then reverse-lexicographic on exponents, so that
    # among equals the generator touching the earliest variable prints
    # first (x1*x2 before x1*x3 before x2*x3).
    return (sum(e), tuple(-x for x in e))


# Interchangeable variables.  Variables i and j are interchangeable in
# an ideal when the transposition (i j) maps its minimal generators to
# themselves.  This is an equivalence relation (conjugating (i j) by
# (j k) gives (i k)), so the classes span a group G, the product of the
# symmetric groups on the classes, that fixes the ideal and each of its
# powers.  The powers and the decomposition work on one canonical
# vector per G-orbit: the entries of each class sorted in decreasing
# order.  For such a group, d <= sigma(e) for some sigma in G exactly
# when canonical(d) <= canonical(e) pointwise, so the packed tests below
# compare orbits as they compare vectors.

def _classes(gens, nvars: int) -> tuple[tuple[int, ...], ...]:
    """The classes of interchangeable variables with two or more members,
    each in increasing order.

    A swap keeps the exponent sum of each variable over the generators,
    so only variables with equal sums are tested.  The relation is an
    equivalence, so each is tested against the first member of every
    class found so far.
    """
    columns = list(zip(*gens)) or [()] * nvars
    candidates: dict[int, list[int]] = {}
    for i, total in enumerate(map(sum, columns)):
        candidates.setdefault(total, []).append(i)
    groups = [group for group in candidates.values() if len(group) > 1]
    if not groups:
        return ()
    present = set(gens)
    classes: list[list[int]] = []
    for group in groups:
        found: list[list[int]] = []
        for i in group:
            for cls in found:
                swapped = columns.copy()
                swapped[i], swapped[cls[0]] = columns[cls[0]], columns[i]
                if all(map(present.__contains__, zip(*swapped))):
                    cls.append(i)
                    break
            else:
                found.append([i])
        classes += (cls for cls in found if len(cls) > 1)
    return tuple(sorted(tuple(cls) for cls in classes))


def _canonical(e, classes) -> tuple[int, ...]:
    v = list(e)
    for cls in classes:
        for i, x in zip(cls, sorted([v[i] for i in cls], reverse=True)):
            v[i] = x
    return tuple(v)


def _canonical_packed(c: int, touched, low: int) -> int:
    """`_canonical` on a packed vector (see `_layout`), for the classes
    whose lists of field offsets are `touched`; `low` is a field's
    exponent bits.  A class already in order is left as it is."""
    for shifts in touched:
        read = [(c >> s) & low for s in shifts]
        values = sorted(read, reverse=True)
        if values != read:
            for s, x, y in zip(shifts, read, values):
                c ^= (x ^ y) << s
    return c


def _arrangements(values):
    """The distinct orderings of a multiset, by next-permutation steps."""
    a = sorted(values)
    while True:
        yield a[:]
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _orbits(vecs, classes) -> list[tuple[int, ...]]:
    """Every vector obtained from one of vecs by permuting entries within
    classes; each orbit once when vecs holds one vector per orbit."""
    for cls in classes:
        expanded = []
        for v in vecs:
            values = [v[i] for i in cls]
            if min(values) == max(values):
                expanded.append(v)
                continue
            w = list(v)
            for arrangement in _arrangements(values):
                for i, x in zip(cls, arrangement):
                    w[i] = x
                expanded.append(tuple(w))
        vecs = expanded
    return vecs


def _minimalize_exps(exps_list) -> tuple[tuple[int, ...], ...]:
    """Drop every vector strictly divisible by another; sort canonically.

    A proper divisor has strictly smaller degree and distinct vectors of
    equal degree never divide each other, so the candidates are taken in
    order of degree alone, each is compared only with the kept vectors
    of smaller degree, and only the kept vectors are sorted canonically.

    Those sit in one int, `pool`, one slot per vector (see `_Slots`), a
    finished degree level appended at once.  (p | H) * rep holds p | H
    in every slot; subtracting the pool borrows within no field, so a
    field fails where the slot's vector exceeds e, and a slot that fails
    in no field is a divisor.
    """
    vecs = sorted(set(exps_list), key=sum)
    if not vecs:
        return ()
    largest = max(itertools.chain.from_iterable(vecs), default=0)
    nvars = len(vecs[0])
    width, H = _layout(largest, nvars)
    slots = _Slots(width, nvars, H)
    kept: list[tuple[int, ...]] = []
    pool = rep = guards = fill = slot_guards = 0
    count = 0
    level: list[int] = []  # packed kept vectors of the current degree
    degree = None
    for e in vecs:
        d = sum(e)
        if d != degree:
            if level:
                pool |= slots.pack(level) << (slots.bits * count)
                count += len(level)
                rep, guards, fill, slot_guards = slots.masks(count)
                level = []
            degree = d
        p = _pack(e, width)
        if not ((((p | H) * rep - pool) & guards) + fill) & slot_guards:
            kept.append(e)
            level.append(p)
    return tuple(sorted(kept, key=_canon_key))


def _check_exponents(e, nvars: int):
    """Raise ValueError, naming e, unless it is a tuple of nvars
    non-negative ints: the form of every vector the engine holds."""
    if type(e) is not tuple or not {int}.issuperset(map(type, e)):
        raise ValueError(f"monomial {e!r} is not a tuple of ints")
    if len(e) != nvars:
        raise ValueError(f"monomial {e} does not live in {nvars} variables")
    if min(e, default=0) < 0:
        raise ValueError(f"negative exponent in {e}")


def minimalize(ambient, gens) -> MonomialIdeal:
    """The ideal generated by the exponent tuples `gens`, reduced to
    minimal generators."""
    ambient = tuple(ambient)
    gens = list(gens)  # an iterator would be spent by the checks
    for g in gens:
        _check_exponents(g, len(ambient))
    return MonomialIdeal(ambient, _minimalize_exps(gens))


def zero_ideal(ambient) -> MonomialIdeal:
    return MonomialIdeal(tuple(ambient), ())


def unit_ideal(ambient) -> MonomialIdeal:
    ambient = tuple(ambient)
    return MonomialIdeal(ambient, ((0,) * len(ambient),))


# The engine holds the powers of an ideal I as pairs (classes, reps):
# the classes of I, which fix all its powers (see `_classes`), and the
# power's canonical generators, one per orbit.

def _pair(I: MonomialIdeal):
    """The pair of I: its classes and its canonical generators."""
    classes = _classes(I.gens, I.nvars)
    return classes, [g for g in I.gens if _canonical(g, classes) == g]


def _apart(classes, w: int) -> dict[int, int]:
    """The guard bits of the fields i, in packed vectors of field width w
    (see `_layout`), followed in i's class by j, keyed by (j - i) * w."""
    pairs = [((j - i) * w, i) for c in classes for i, j in zip(c, c[1:])]
    return {d: sum(1 << (i + 1) * w - 1 for e, i in pairs if e == d) for d, _ in pairs}


def _ties(x: int, apart, fill: int) -> int:
    """The ties of the packed x, the bits of `apart` where x_i = x_j: field
    i of x ^ x >> d is 0 there, and adding fill sets its guard unless 0."""
    ties = 0
    for d, f in apart.items():
        ties |= f & ~((x ^ x >> d) + fill)
    return ties


def _power_step(classes, reps, I: MonomialIdeal):
    """The canonical generators of power * I, for those of a power of I:
    the canonical products r + h of reps with the generators of I,
    minimalized, where h does not rise (h_i < h_j) on a tie of r (r_i =
    r_j, j next in i's class).  A tie's transposition fixes r and the
    generators, so these h reach every orbit of products, and for h of
    0s and 1s r + h is then canonical: between runs of equal entries a
    step of at least 1 absorbs a change of at most 1.  Only classes
    where h exceeds 1 are sorted."""
    width, H = _layout(max(itertools.chain(*reps, *I.gens), default=0), I.nvars)
    apart, fill = _apart(classes, width), H - (H >> width - 1)
    factors = [
        (h, sum(f & ~((p | H) - (p >> d)) for d, f in apart.items()),
         [c for c in classes if max(h[i] for i in c) > 1])
        for h in I.gens
        for p in [_pack(h, width)]
    ]
    prods = {
        _canonical(prod, above) if above else prod
        for r in reps
        for ties in [_ties(_pack(r, width), apart, fill)]
        for h, rises, above in factors
        if not rises & ties
        for prod in [tuple(map(operator.add, r, h))]
    }
    return _minimalize_exps(prods)


def _powers(I: MonomialIdeal):
    """The pairs of I, I^2, I^3, ...: `_pair(I)`, then each power's reps
    stepped from the one before by `_power_step`, under I's classes."""
    classes, reps = _pair(I)
    while True:
        yield classes, reps
        reps = _power_step(classes, reps, I)


def _power(I: MonomialIdeal, s: int):
    """The pair of I^s, for s >= 1: s - 1 steps from I."""
    return next(itertools.islice(_powers(I), s - 1, None))


def _check_power(s):
    if type(s) is not int:
        raise ValueError(f"power {s!r} is not an int")
    if s < 0:
        raise ValueError("negative power")


def _check_positive(name: str, value: int):
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


@lru_cache(maxsize=None, typed=True)
def ideal_power(I: MonomialIdeal, s: int) -> MonomialIdeal:
    """I^s, minimalized after each multiplication: the pair of I^s (see
    `_powers`) with its orbits expanded, in canonical order.  A memo for
    library callers; the engine reads the pairs and never calls it."""
    _check_power(s)
    if s == 0:
        return unit_ideal(I.ambient)
    classes, reps = _power(I, s)
    orbits = _orbits(reps, classes)
    if len(orbits) > len(reps):  # the expansion broke the canonical order
        orbits = sorted(orbits, key=_canon_key)
    return MonomialIdeal(I.ambient, tuple(orbits))


def colon(I: MonomialIdeal, t: tuple[int, ...]) -> MonomialIdeal:
    """The quotient I : <t>, computed generator by generator."""
    _check_exponents(t, I.nvars)
    quotients = {tuple(map(operator.sub, map(max, g, t), t)) for g in I.gens}
    return MonomialIdeal(I.ambient, _minimalize_exps(quotients))


def contains(I: MonomialIdeal, m: tuple[int, ...]) -> bool:
    """Whether m lies in I: some generator of I divides it."""
    _check_exponents(m, I.nvars)
    return any(all(map(operator.le, g, m)) for g in I.gens)


_STAIRCASE_MAX_BITS = 1 << 18  # see _decompose


def _box(radix) -> Box | None:
    """The box of these radices, or None past `_STAIRCASE_MAX_BITS`
    points: the one reader of the limit, asked by `_decompose`,
    `_squarefree_dual` and the walk's gate, `_walk_box`."""
    return Box(radix) if math.prod(radix) <= _STAIRCASE_MAX_BITS else None


def _radices(reps, classes) -> list[int]:
    """One more than each variable's largest exponent over the orbits of
    reps: for every variable of a class, its class's largest entry,
    which a canonical vector holds first."""
    radix = [1 + x for x in map(max, zip(*reps))]
    for cls in classes:
        for i in cls[1:]:
            radix[i] = radix[cls[0]]
    return radix


def _decompose(nvars: int, classes, reps):
    """`top` and the canonical component vectors, one per orbit, of the
    ideal of a pair (see `_powers`): the one decomposition behind
    irreducible_decomposition and the associated primes, and behind the
    square-free duals past the limit (see `_squarefree_dual`).

    A box that `_box` admits goes to the box kernel,
    `staircase._staircase`; larger boxes go to the incremental loop,
    `loop._components`.  Both run on the classes the pair holds.
    Nothing else calls either kernel.

    Timed on 161 tree and star cells (see README), the staircase was
    faster on nearly every box of at most 2^18 points and lost by up to
    25 times above 2^19.

    Once the loop skipped the orbit members no held component misses,
    both kernels were timed again, best of three, on the 69 star cells
    K_{1,n} with classes and boxes in (2^17, 2^20].  The staircase was
    faster on 23 of the 31 in (2^17, 2^18], 9 of the 13 in (2^18, 2^19]
    and 14 of the 25 in (2^19, 2^20], in total 79 against 416 ms, 54
    against 133 ms and 347 against 624 ms.  The loop won every t = 1
    cell, by up to 37 times (K_{1,9} at s = 3), and most t = 2 and
    t = n cells from n = 6 on; it lost at the t between by up to 20
    times (K_{1,4} at t = 3, s = 11).  No box size separates the
    kernels on stars, so the limit stays.  The `tree_sweep` boxes, at
    most 5^7 points, lie far inside it.
    """
    radix = _radices(reps, classes)
    top, box = max(radix), _box(radix)
    if box is not None:
        return top, _staircase(box, reps, classes, top)
    from .loop import _components  # only past-limit cells load the loop

    return top, _components(reps, nvars, top, classes)


@lru_cache(maxsize=None)
def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """An irredundant list of irreducible ideals intersecting to I."""
    if I.is_zero:
        raise ValueError("the zero ideal has no irreducible decomposition here")
    if I.is_unit:
        raise ValueError("the unit ideal has no irreducible decomposition")
    classes, reps = _pair(I)
    top, vecs = _decompose(I.nvars, classes, reps)
    comps = [
        tuple((i, e) for i, e in enumerate(v) if e != top)
        for v in _orbits(vecs, classes)
    ]
    ordered = sorted(comps, key=lambda c: (len(c), c))
    return tuple(IrreducibleComponent(c) for c in ordered)


def _mask_orbits(classes, masks) -> list[int]:
    """Every mask that moves the bits of one of masks within classes,
    each orbit once when masks holds one mask per orbit."""
    for cls in classes:
        whole = sum(1 << i for i in cls)
        masks = [
            m & ~whole | sum(1 << i for i in placed)
            for m in masks
            for placed in itertools.combinations(cls, (m & whole).bit_count())
        ]
    return masks


def _primes(classes, masks, built: dict) -> frozenset[MonomialPrime]:
    """The primes on the orbits of masks, one mask per orbit; built keeps
    each orbit's primes by mask, for a walk to build each prime once."""
    for m in masks:
        if m not in built:
            built[m] = frozenset(
                MonomialPrime(frozenset(i for i in range(o.bit_length()) if o >> i & 1))
                for o in _mask_orbits(classes, [m])
            )
    return frozenset().union(*map(built.__getitem__, masks))


def _check_proper(I: MonomialIdeal):
    if I.is_zero or I.is_unit:
        raise ValueError("associated primes are computed for proper nonzero ideals")


def associated_primes(I: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Ass(I): the supports of the irredundant irreducible components,
    read off their masks as `power_primes` reads I^1."""
    return power_primes(I, 1)


def _walk_box(I: MonomialIdeal, s_max: int) -> Box | None:
    """The walk's gate (see `_walk`): `_box` on the box of I^s_max, radix
    1 + s_max * m_i with m_i the largest exponent of x_i in I."""
    return _box([1 + s_max * x for x in map(max, zip(*I.gens))])


def _walk(I: MonomialIdeal, s_max: int):
    """(classes, read, powers): the classes of I, which fix all its
    powers; powers yields one value for each of I, I^2, ..., and read
    takes one to the distinct support masks of that power's canonical
    components, which `_primes` expands on the classes.  Where
    `_walk_box` gives a box, no power is built: the values are the
    points of each power in that one box (`staircase._box_powers`).
    Otherwise they are the pairs of the powers (see `_powers`), each
    decomposed.
    """
    classes, box = _classes(I.gens, I.nvars), _walk_box(I, s_max)
    if box is not None:
        return (classes, *_box_powers(box, I.gens, classes))

    def read(pair):
        top, vecs = _decompose(I.nvars, *pair)
        return {sum(1 << i for i, x in enumerate(v) if x != top) for v in vecs}

    return classes, read, _powers(I)


def associated_primes_of_powers(
    I: MonomialIdeal, s_max: int
) -> list[frozenset[MonomialPrime]]:
    """Ass(I^s) for s = 1..s_max: every power of the walk (see `_walk`),
    each read and dropped.  The sets share one object per prime."""
    _check_proper(I)
    _check_positive("s_max", s_max)
    classes, read, powers = _walk(I, s_max)
    built: dict[int, frozenset[MonomialPrime]] = {}
    powers = itertools.islice(powers, s_max)
    return [_primes(classes, read(power), built) for power in powers]


def power_primes(I: MonomialIdeal, s: int) -> frozenset[MonomialPrime]:
    """Ass(I^s): the walk to I^s (see `_walk`), of which only the last
    power's support masks are read."""
    _check_power(s)
    _check_proper(I if s else unit_ideal(I.ambient))  # I^0 is the unit ideal
    classes, read, powers = _walk(I, s)
    return _primes(classes, read(next(itertools.islice(powers, s - 1, None))), {})


def power_contains(I: MonomialIdeal, s: int, points) -> list[bool]:
    """Whether each of points lies in I^s, by a depth-first search that
    builds no power: x lies in I^k when k = 0, or when some generator g
    of I divides x and x - g lies in I^(k-1).  It runs on an explicit
    stack, at most s deep, and keeps every (x, k) found outside I^k for
    all points.  It works on canonical vectors under the classes of I,
    which fix every power (see `_classes`), packed (see `_layout`) with
    fields wide enough for the generators as well as the points.  As in
    `_power_step`, it tries on x only the g that do not fall (g_i > g_j)
    on a tie of x and sorts x - g only where g has an entry above 1."""
    _check_power(s)
    points = list(points)  # an iterator would be spent by the checks
    for x in points:
        _check_exponents(x, I.nvars)
    if not s:
        return [True] * len(points)  # I^0 is the unit ideal
    classes = _classes(I.gens, I.nvars)
    width, H = _layout(max(itertools.chain(*points, *I.gens), default=0), I.nvars)
    low = (1 << (width - 1)) - 1
    apart, fill = _apart(classes, width), H - (H >> width - 1)
    highs = [([i * width for i in c], sum(low - 1 << i * width for i in c))
             for c in classes]
    factors = []
    for g in I.gens:
        p, falls = _pack(g, width), 0
        for d, f in apart.items():
            falls |= f & ~((p >> d | H) - p)
        factors.append((p, falls, [f for f, high in highs if p & high]))
    outside = [set() for _ in range(s + 1)]

    def member(x):
        stack = [(x, s, iter(factors), _ties(x, apart, fill))]
        while stack:
            x, k, tries, ties = stack[-1]
            for g, falls, touched in tries:
                if not falls & ties and ((x | H) - g) & H == H:
                    if k == 1:
                        return True
                    y = _canonical_packed(x - g, touched, low) if touched else x - g
                    if y not in outside[k - 1]:
                        stack.append((y, k - 1, iter(factors), _ties(y, apart, fill)))
                        break
            else:
                outside[k].add(x)
                stack.pop()
        return False

    packed = [_pack(_canonical(x, classes), width) for x in points]
    known = {x: member(x) for x in dict.fromkeys(packed)}
    return [known[x] for x in packed]


def witness_search(I: MonomialIdeal, P: MonomialPrime) -> tuple[int, ...] | None:
    """Exhaustive search for a monomial T with I : <T> = P.

    The search box bounds each exponent of T by (max exponent of that
    variable over the generators) * (number of generators).  This is an
    engineering bound for desk-scale cross-checks, not a theorem; any
    hit is certified on the spot by the colon computation, and absence
    is meaningful only relative to the box.
    """
    if I.is_zero or I.is_unit:
        raise ValueError("witness search needs a proper nonzero ideal")
    gens = I.gens
    bounds = [max(column) * len(gens) for column in zip(*gens)]
    want = P.support
    for t in itertools.product(*(range(b + 1) for b in bounds)):
        if any(all(a <= b for a, b in zip(g, t)) for g in gens):
            continue  # t in I, colon is the unit ideal
        quotients = [tuple(max(a - b, 0) for a, b in zip(g, t)) for g in gens]
        # I : <t> equals P exactly when each variable of P appears as a
        # generator and every quotient is divisible by one of them.
        if not all(any(q[i] for i in want) for q in quotients):
            continue
        pure = {q.index(1) for q in quotients if sum(q) == 1}
        if pure == want:
            return t
    return None


_ENTRIES = bytes.maketrans(b"01", b"\0\1")  # binary digits -> vector entries


def _masks(ambient, supports) -> tuple[dict, list[int]]:
    """The bit of each variable of ambient in some support, the first
    highest, and the masks of supports on them: a mask's binary digits
    are its entries there.  `_ideal` converts back."""
    used = set().union(*supports)
    axes = [v for v in ambient if v in used]
    bit = {v: 1 << len(axes) - 1 - j for j, v in enumerate(axes)}
    return bit, [sum(map(bit.__getitem__, s)) for s in supports]


def _ideal(ambient, bit, masks) -> MonomialIdeal:
    """The square-free ideal of the distinct nonzero masks `masks`, an
    antichain, on the variables of `bit` (see `_masks`), 0 elsewhere."""
    k = len(bit)
    ordered = sorted(masks, key=lambda m: (m.bit_count(), -m))  # `_canon_key`
    vecs = [bin(m | 1 << k)[3:].encode().translate(_ENTRIES) for m in ordered]
    if k < len(ambient):  # n > k >= 1 if any mask, so the getter returns tuples
        at = [k - bit[v].bit_length() if v in bit else k for v in ambient]
        vecs = map(operator.itemgetter(*at), (e + b"\0" for e in vecs))
    return MonomialIdeal(tuple(ambient), tuple(map(tuple, vecs)))


def _squarefree(ambient, supports) -> MonomialIdeal:
    """The square-free ideal whose minimal generators have the supports
    `supports`, nonempty collections of labels of ambient, an antichain
    up to repeats."""
    bit, masks = _masks(ambient, supports)
    return _ideal(ambient, bit, set(masks))


def _squarefree_dual(ambient, supports) -> MonomialIdeal:
    """The Alexander dual of the square-free ideal whose minimal
    generators have the supports `supports`, collections of labels of
    ambient, an antichain up to repeats: the one route to every dual,
    J_t and the hypergraph cover ideals included.  Only the k variables
    in some support count (see `_masks`).  In a box that `_box` admits,
    {0,1}^k, the dual's masks are the minimal transversals read off its
    staircase (`staircase.transversals`); past it, the associated primes
    of the ideal on those variables.
    """
    bit, masks = _masks(ambient, supports)
    if not bit:  # the zero ideal, or the unit ideal with its one empty support
        return zero_ideal(ambient) if supports else unit_ideal(ambient)
    box = _box([2] * len(bit))
    if box is None:
        keys = list(bit.values())
        primes = associated_primes(_ideal(tuple(bit), bit, set(masks)))
        duals = [sum(keys[i] for i in p.support) for p in primes]
    else:
        duals = transversals(box, masks)
    return _ideal(ambient, bit, duals)


def alexander_dual(I: MonomialIdeal) -> MonomialIdeal:
    """The Alexander dual of a square-free ideal.

    Generators are the minimal transversals of the generator supports.
    The irreducible components of a square-free ideal are exactly the
    primes on those transversals, so the dual is read off their
    staircase (see `_squarefree_dual`); it is an involution on
    square-free ideals.
    """
    if not I.is_squarefree:
        raise ValueError("Alexander duality is defined for square-free ideals only")
    supports = [tuple(itertools.compress(I.ambient, g)) for g in I.gens]
    return _squarefree_dual(I.ambient, supports)


# Serialization: `x1^2*x3` style, exponent 1 elided, `1` for the empty
# monomial; ideals render as a bracketed generator list.

def monomial_str(m: tuple[int, ...], ambient: tuple[str, ...]) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(ambient, m)
        if e > 0
    ]
    return "*".join(parts) if parts else "1"


def monomial_from_str(text: str, ambient: tuple[str, ...]) -> tuple[int, ...]:
    exps = [0] * len(ambient)
    if text.strip() == "1":
        return tuple(exps)
    for part in text.split("*"):
        name, caret, power = part.strip().partition("^")
        if name not in ambient:
            raise ValueError(f"unknown variable {name!r}")
        # int() would also take signs, spaces, underscores and non-ASCII
        # digits; an exponent is ASCII decimal digits only.
        if caret and not (power.isascii() and power.isdigit()):
            what = "negative" if power.startswith("-") else "malformed"
            raise ValueError(f"{what} exponent in {part.strip()!r}")
        exps[ambient.index(name)] += int(power) if caret else 1
    return tuple(exps)


def ideal_str(I: MonomialIdeal) -> str:
    return "[" + ", ".join(monomial_str(g, I.ambient) for g in I.gens) + "]"


def prime_str(P: MonomialPrime, ambient: tuple[str, ...]) -> str:
    return "<" + ", ".join(P.labels(ambient)) + ">"


def sorted_primes(primes) -> list[MonomialPrime]:
    """Canonical report order: by support size, then by index tuple."""
    return sorted(primes, key=lambda p: (len(p.support), p.indices))
