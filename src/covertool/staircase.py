"""The bit-parallel kernel behind the staircase decompositions.

A monomial ideal is held as the set U of its points in an exponent box,
one bit per point of one int (`Box`).  `corners` reads the irreducible
components off U, `supports` their support masks, and `Shifts` takes the
points of J to those of I * J, so powers are walked without building
one.  It works on exponent vectors and bits alone; `monomials` picks the
box (`_box`), hands it to `_staircase`, `_box_powers` or `transversals`,
and turns what comes back into components and primes.
"""

from __future__ import annotations

import itertools
import operator

_NONZERO = bytes([0]) + bytes([1]) * 255  # a `bytes.translate` table


def tile(block: int, period: int, size: int) -> int:
    """The pattern `block` of `period` bits repeated over `size` bits."""
    while period < size:
        block |= block << period
        period <<= 1
    return block & ((1 << size) - 1)


class Box:
    """The exponent box of the points x with 0 <= x_i < radix_i, one bit
    each in one int, at sum x_i * stride_i in mixed radix."""

    def __init__(self, radix):
        self.radix = radix
        self.stride = list(itertools.accumulate(radix, operator.mul, initial=1))
        self.size = self.stride.pop()
        self.full = (1 << self.size) - 1
        # A 1 at the first point of every period of each axis, where the
        # variable and all before it are 0.
        self.starts = [
            tile(1, period, self.size) for period in self.stride[1:] + [self.size]
        ]

    def rows(self, i: int, lo: int, hi: int) -> int:
        """The points with lo <= x_i < hi."""
        start, stride = self.starts[i], self.stride[i]
        return (start << hi * stride) - (start << lo * stride)

    def offset(self, e) -> int:
        return sum(map(operator.mul, e, self.stride))

    def upward(self, offsets) -> int:
        """The points of the box that the point at some offset of offsets
        divides: those points, then one shift along each axis by 1, 2,
        4, ... steps."""
        points = bytearray(self.size // 8 + 1)
        for at in offsets:
            points[at >> 3] |= 1 << (at & 7)
        U = int.from_bytes(points, "little")
        for i, r in enumerate(self.radix):
            step = 1
            while step < r:
                U |= (U & self.rows(i, 0, r - step)) << step * self.stride[i]
                step <<= 1
        return U

    def corner_tests(self, classes) -> list[tuple]:
        """For each axis i with radix_i > 1, (shift, keep, free): a
        standard x passes the axis where (U >> shift) & keep | free
        holds (see `corners`), with keep None for all points.

        free holds x_i = radix_i - 1, and keep all points, except on an
        axis whose variable i follows p in a class: there x passes where
        x_p = x_i, the test is read only where x_p > x_i, and a point
        with x_p < x_i is no canonical corner.
        """
        before = {i: p for cls in classes for p, i in zip(cls, cls[1:])}
        tests = []
        for i, r in enumerate(self.radix):
            if r == 1:
                continue
            keep, free = None, self.rows(i, r - 1, r)
            if i in before:
                # x_p against x_i on one period of axis i, then tiled.
                p, s, sp = before[i], self.stride[i], self.stride[before[i]]
                low = self.starts[p] & ((1 << s) - 1)
                eq = gt = 0
                for v in range(r):
                    below, above = low << v * sp, low << (v + 1) * sp
                    eq |= (above - below) << v * s
                    gt |= ((low << r * sp) - above) << v * s
                keep = tile(gt, r * s, self.size)
                free = free & keep | tile(eq, r * s, self.size)
            tests.append((self.stride[i], keep, free))
        return tests


class Shifts:
    """U -> OR_g ((U & fit_g) << offset(g)) over the generators g of an
    ideal I that fit `box`, on sets U of points of it: the points of
    I * J in the box from those of J.

    This is exact in any box, not only one that holds the generators of
    I * J: x is in I * J exactly when x - g is in J for some generator g
    of I, and x - g <= x lies in the box whenever x does.  A generator
    that does not fit the box divides no point of it, and is not passed.

    fit_g, the points x with x + g still in the box, is the AND of one
    mask x_i < radix_i - g_i per variable of g, each built once; without
    it a point would wrap into the next axis.  So the shift by g is the
    shift by g_i along each axis i in turn, each under its axis's mask,
    and generators share the shifts along the axes they agree on.  The
    generators are cut back one variable at a time, from the last: those
    with one head (their exponents before variable i) need the OR, over
    the distinct exponents x_i among them, of the masked shift along
    axis i of the register for the longer head.  Equal sets of such
    terms are one register, and a head with the single exponent 0 keeps
    the register of the longer head.  On the 252 square-free generators
    of degree 5 in 10 variables a step takes 30 masked shifts, where one
    per generator, each behind the AND of 5 masks, took 252.
    """

    def __init__(self, box: Box, gens):
        self.program: list[list[tuple[int, int | None, int]]] = []
        made: dict[tuple[int, frozenset], int] = {}
        masks: dict[tuple[int, int], int] = {}
        heads = dict.fromkeys(gens, 0)  # register 0 holds U itself
        for i in reversed(range(len(box.radix))):
            groups: dict[tuple, list] = {}
            for head, reg in heads.items():
                groups.setdefault(head[:i], []).append((head[i], reg))
            heads = {}
            for head, terms in groups.items():
                if len(terms) == 1 and not terms[0][0]:
                    heads[head] = terms[0][1]
                    continue
                key = (i, frozenset(terms))
                if key not in made:
                    shifts = []
                    for x, reg in terms:
                        if x and (i, x) not in masks:
                            masks[i, x] = box.rows(i, 0, box.radix[i] - x)
                        shifts.append((reg, masks.get((i, x)), x * box.stride[i]))
                    self.program.append(shifts)
                    made[key] = len(self.program)
                heads[head] = made[key]
        self.result = heads[()]

    def __call__(self, U: int) -> int:
        regs = [U]
        for terms in self.program:
            value = 0
            for reg, mask, shift in terms:
                value |= (regs[reg] & mask) << shift if shift else regs[reg]
            regs.append(value)
        return regs[self.result]


def corners(box: Box, U: int, tests, top: int) -> list[tuple[int, ...]]:
    """The canonical component vectors of the ideal whose points in box
    are U, one per orbit, with `top` marking an absent variable; tests
    come from `Box.corner_tests` on the ideal's classes.

    The points outside U are the staircase of standard monomials.  Its
    corners, the standard x with x + e_i in U or x_i = radix_i - 1 for
    every i, are the maximal standard monomials, and the irreducible
    components are <x_i^(x_i + 1) : x_i < radix_i - 1> over the corners
    (Miller and Sturmfels, Combinatorial Commutative Algebra, ch. 5).
    A box larger than the ideal's own reads the same components: a
    standard x with x_i past every exponent of x_i in the generators has
    x + e_i standard, so its corners are those of the smaller box with
    each last entry moved to the last entry of the larger.

    Only canonical corners are kept, those whose entries do not increase
    within a class.  U must be exact on a canonical x, and on x + e_i
    unless x_i equals the entry before it in its class, where that test
    is skipped: x + e_i is then an image of x + e_j, with j where the run
    of equal entries starts, and x + e_j is canonical and tested.
    """
    found, columns = _corner_offsets(box, U, tests), []
    for r in box.radix:
        entry = [*range(1, r), top]
        columns.append([entry[x % r] for x in found])
        found = [x // r for x in found]
    return list(zip(*columns))


def _corner_offsets(box: Box, U: int, tests) -> list[int]:
    """The offsets of the corners that `corners` reads, in increasing
    order.  `bytes.translate` takes each nonzero byte of the marks to 1
    and `bytes.find` skips to the next, so zero bytes cost no Python step."""
    marks = box.full ^ U
    for shift, keep, free in tests:
        up = U >> shift
        marks &= (up if keep is None else up & keep) | free
    data = marks.to_bytes(box.size // 8 + 1, "little")
    flags, found = data.translate(_NONZERO), []
    at = flags.find(1)
    while at >= 0:
        byte = data[at]
        while byte:
            bit = byte & -byte
            byte ^= bit
            found.append(8 * at + bit.bit_length() - 1)
        at = flags.find(1, at + 1)
    return found


def _staircase(box: Box, reps, classes, top) -> list[tuple[int, ...]]:
    """The box kernel: the canonical component vectors that
    `loop._components` returns, read off the staircase of the ideal in
    its exponent box.  On a canonical x the upward closure of the
    canonical reps alone is exact, and that is all `corners` reads."""
    U = box.upward(map(box.offset, reps))
    return corners(box, U, box.corner_tests(classes), top)


def supports(box: Box, tests):
    """The reader that takes U to the distinct support masks, bit i where
    x_i < radix_i - 1, of the canonical corners `corners` reads off it:
    lo[x % at] | hi[x // at] at offset x, from the masks of the axes
    below a cut near the square root of the box size and from it.  A
    loop over the digits of x, one divmod per axis, read the 90 chains
    of a `tree_sweep` batch in 18.2-23.2 ms against 16.9-22.1 ms, slower
    in 4 of 5 rounds, and tied on 40 K_{1,6..10} chains (Python 3.11.7,
    2-core VM, best of 40 and of 5 per round)."""
    k = sum(stride * stride < box.size for stride in box.stride)
    at, tables = (box.stride + [box.size])[k], [[0], [0]]
    for i, r in enumerate(box.radix):
        table = tables[i >= k]  # a copy per x_i, bit i in all but the last
        tables[i >= k] = [m | 1 << i for m in table] * (r - 1) + table
    lo, hi = tables
    return lambda U: {lo[x % at] | hi[x // at] for x in _corner_offsets(box, U, tests)}


def _box_powers(box: Box, gens, classes):
    """(read, powers) for the ideal I of gens, whose classes fix all its
    powers: powers yields the points in box of I, I^2, ..., each one
    `Shifts` step from the one before, and read is `supports` on those
    classes.  The box must hold every generator."""
    shift = Shifts(box, gens)

    def powers(U=box.full):
        while True:
            U = shift(U)
            yield U

    return supports(box, box.corner_tests(classes)), powers()


def transversals(box: Box, masks) -> list[int]:
    """The minimal transversals of the sets of variables `masks`, as
    masks; box has radix 2 on every variable.

    There a point's offset is its support mask, so the points of the
    square-free ideal the sets generate are the upward closure of the
    masks.  Its components are the primes on the minimal transversals,
    and that of a corner x is on the variables with x_i = 0 (see
    `corners`): the transversal is the complement of x, one XOR where
    `supports` would first build its tables.  Corners form an antichain.
    Over the 150 calls of a `tree_sweep` batch this took 1.35-1.40 ms,
    against 2.29-2.47 ms through `supports` (Python 3.11.7, 2-core VM,
    best of 100, three runs).
    """
    everything = box.size - 1
    tests = box.corner_tests(())
    return [everything ^ x for x in _corner_offsets(box, box.upward(masks), tests)]
