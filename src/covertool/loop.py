"""The incremental loop: the decomposition kernel past the staircase
limit, which `monomials._decompose` imports only there.  The names it
cites and does not define, such as `_classes`, `_orbits` and
`_layout`, are those of `monomials`.
"""

from __future__ import annotations

import itertools

from .monomials import _canonical_packed, _layout, _pack, _Slots


def _arrangements_under(values, bounds):
    """The distinct orderings a of values with a_j < bounds_j wherever
    a_j > 0, for decreasing bounds.

    Every nonzero value, largest first, takes free positions among the
    prefix whose bounds exceed it, and zeros fill the rest.  The bounds
    decrease, so that prefix holds every position a value may take.
    """
    placed = [[0] * len(values)]
    prefix = 0
    for v in sorted(set(values) - {0}, reverse=True):
        while prefix < len(bounds) and bounds[prefix] > v:
            prefix += 1
        grown = []
        for a in placed:
            free = [j for j in range(prefix) if not a[j]]
            for chosen in itertools.combinations(free, values.count(v)):
                b = a.copy()
                for j in chosen:
                    b[j] = v
                grown.append(b)
        placed = grown
    return list(map(tuple, placed))


def _missed_members(r, cs, classes) -> list[tuple[int, ...]]:
    """The members of the orbit of r that some vector of cs misses, in
    the order of `_orbits`, with r and every c canonical.

    A component vector c misses g when g_i < c_i wherever g_i > 0 (see
    below).  Off the classes every member equals r; on a class, the
    members c misses are `_arrangements_under` its entries of c.
    """
    inside = {i for cls in classes for i in cls}
    outside = [i for i, x in enumerate(r) if x and i not in inside]
    keys = set()
    for c in cs:
        if any(r[i] >= c[i] for i in outside):
            continue
        keys.update(
            itertools.product(
                *[
                    _arrangements_under([r[i] for i in cls], [c[i] for i in cls])
                    for cls in classes
                ]
            )
        )
    members = []
    # `_orbits` expands the classes in turn, each in the lexicographic
    # order of `_arrangements`: the order of the keys as tuples.
    for key in sorted(keys):
        v = list(r)
        for cls, arrangement in zip(classes, key):
            for i, x in zip(cls, arrangement):
                v[i] = x
        members.append(tuple(v))
    return members


# Inside the decomposition, an irreducible component <x_i^{e_i}> is a
# full-length exponent vector in which `top`, one more than the largest
# exponent of the ideal, marks an absent variable.  A component C
# contains D exactly when the vector of C lies pointwise below the
# vector of D, so C is then redundant in the intersection.

def _components(reps, nvars, top, classes) -> list[tuple[int, ...]]:
    """Irredundant component vectors, adding generators one at a time.

    A component that already contains the next generator g is kept; any
    other component is replaced by its tightenings at the variables of
    g.  Only the pointwise-maximal vectors survive each step.

    The generators are added one G-orbit at a time (see `_classes`), so
    the ideal is G-invariant between orbits and its components are held
    as one canonical vector per orbit.  The step runs, in the order of
    `_orbits`, on the members of the next orbit that some held vector
    misses, and every other member is skipped.  When the orbit meets a
    class, the vectors it made are then canonicalized and the redundant
    ones dropped; the drops between members only thin them out.

    The skip is exact.  A member that no vector held at the orbit's
    start misses changes nothing: a tightening lies pointwise below its
    source, so it misses no member that its source does not miss.  The
    held vectors and the orbit's canonical generator r are sorted
    decreasingly within each class, so a held c misses some member of
    the orbit exactly when it misses r: the m-th largest nonzero entry
    of a class needs m positions whose bounds exceed it, and r puts it
    at the position of the m-th largest bound.  So one test of r
    against all held vectors finds the c that matter, and
    `_missed_members` lists the members they miss.  A skipped member's
    step would only have appended the vectors of the member before it,
    which the next member that runs appends in turn, and r, the orbit's
    last member, always runs; so the held vectors and their order are
    those of running every member.

    Every orbit and member that runs is missed by some held vector.  The
    reps are the canonical generators of a minimal generating set, so r
    lies outside the ideal of the orbits before it and some held vector
    misses r (at first the one vector, all `top`, misses everything).  A
    member that `_missed_members` picks is still missed at its turn: a
    vector that missed it is kept, or replaced by its tightening at a
    variable where the earlier member's entry is larger, which also
    misses it, or by a vector that covers that tightening.

    Components are packed (see `_layout`) with their guard bits set, so
    k <= c is (c - k) & H == H.  A component c misses g exactly when
    g + 1 <= c on the support of g, and a tightening at variable i
    clears the exponent bits of field i and writes g_i there.

    The held vectors sit in one int, `pool`, one slot each (see
    `_Slots`), so that g is tested against all of them, and each new
    vector against all others, in a few operations on it.  `vecs` lists
    the vector of every slot in slot order, which is the order of the
    result.  A replaced or redundant component is not removed: its slot
    is set to H, all fields 0, which misses no generator and lies above
    no component, since every component entry is at least 1.  The spare
    slots at the top hold H too.  Once the dead slots outnumber the
    live ones they are dropped.
    """
    width, H = _layout(top, nvars)
    low = (1 << (width - 1)) - 1  # the exponent bits of one field
    slots = _Slots(width, nvars, H)
    bits = slots.bits
    exponents = ((1 << nvars * width) - 1) ^ H  # the exponent bits of a slot
    fields = [low << i * width for i in range(nvars)]
    class_shifts = [(cls, [i * width for i in cls]) for cls in classes]

    def unpack(c):
        return tuple((c >> i * width) & low for i in range(nvars))

    vecs = [_pack((top,) * nvars, width) | H]
    live = 1  # slots of vecs that hold a component
    held = 0  # slots filled before the current orbit
    pool = vecs[0]
    cap = rep = guards = fill = slot_guards = 0

    def resize(count):
        # Room for count slots and some to spare; the slots cut off
        # hold no component.
        nonlocal cap, rep, guards, fill, slot_guards, pool
        cap = count + count // 2 + 16
        rep, guards, fill, slot_guards = slots.masks(cap)
        pool = pool & ((1 << bits * cap) - 1) | guards

    def live_flags():
        # A live slot has an exponent bit set, which carries into its
        # slot guard once the slot guard less one is added.
        marks = ((pool ^ guards) + slot_guards - rep) & slot_guards
        return slots.flags(marks, len(vecs))

    def compact():
        nonlocal pool, held
        flags = live_flags()
        held -= flags[:held].count(0)
        vecs[:] = itertools.compress(vecs, flags)
        pool = slots.pack(vecs)
        resize(len(vecs))

    def append(new):
        # No vector of new equals a held one, so a vector c of new is
        # redundant exactly when it lies below some d != c in the pool
        # once new is in it: c itself is one hit, a second one is a
        # proper cover.  Dropping a redundant c at once leaves the
        # others' verdicts as they were, since what c lies below covers
        # them too.
        nonlocal pool, live
        start = len(vecs)
        if start + len(new) > cap:
            resize(start + len(new))
        vecs.extend(new)
        pool |= slots.pack(new) << bits * start
        live += len(new)
        for slot, c in enumerate(new, start):
            c ^= H
            if ((((pool - c * rep) & guards) + fill) & slot_guards).bit_count() > 1:
                pool -= c << bits * slot
                live -= 1

    def misses(p):
        # The slots that miss the packed generator p.  g + 1 on the
        # support of g: adding a field's exponent bits carries into its
        # guard bit exactly when the field is not 0.
        above = p + (((p + exponents) & H) >> width - 1)
        return (((pool - above * rep) & guards) + fill) & slot_guards

    resize(1)
    for r in reps:
        # Tightenings write only at the variables of the orbit, so the
        # classes it does not touch stay in canonical order.
        touched = [shifts for cls, shifts in class_shifts if any(r[i] for i in cls)]
        held = len(vecs)
        if len(vecs) > 2 * live:
            compact()
        p = _pack(r, width)
        missed = misses(p)
        if touched:
            flagged = itertools.compress(vecs, slots.flags(missed, len(vecs)))
            picked = _missed_members(r, list(map(unpack, flagged)), classes)
            members = [_pack(m, width) for m in picked]
        else:
            members = [p]
        for step, q in enumerate(members):
            if step:
                if new:
                    append(new)
                if len(vecs) > 2 * live:
                    compact()
            if step or q != p:  # else the pool is as r was tested on it
                missed = misses(q)
            tighten = [(~field, q & field) for field in fields if q & field]
            new = {
                c & clear | value
                for c in itertools.compress(vecs, slots.flags(missed, len(vecs)))
                for clear, value in tighten
            }
            pool &= ~((missed >> bits - 1) * exponents)
            live -= missed.bit_count()
        if touched:
            # The slots from `held` on were filled in this orbit: a
            # tightening lies strictly below a held orbit, so it is never
            # itself held.  A held vector that survives the orbit is still
            # canonical and, as held orbits were irredundant, never
            # redundant.
            made = list(itertools.compress(vecs[held:], live_flags()[held:]))
            new.update(made)
            new = {_canonical_packed(c, touched, low) for c in new}
            del vecs[held:]
            live -= len(made)
            pool &= (1 << bits * held) - 1
            resize(held)
        if new:
            append(new)
    return list(map(unpack, itertools.compress(vecs, live_flags())))
