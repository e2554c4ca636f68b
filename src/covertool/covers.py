"""Partial t-cover ideals of graphs.

J_t(G) is the intersection, over every vertex x and every t-subset S of
its neighbourhood, of the prime generated by {x} together with S.  By
Alexander duality that intersection is the dual of the square-free
ideal generated by the closed t-star products x*x_S: J_t is the cover
ideal of the hypergraph of closed t-stars.  It, that ideal and the star
closed form are built from their supports like every square-free ideal
(see `monomials._squarefree`).  The generators of J_t are also exactly
the products x_W over minimal partial t-covers W; the dual and that
enumeration live here so they can be checked against each other.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, find_special_vertex, star_graph
from .monomials import (
    MonomialIdeal,
    _check_positive,
    _squarefree,
    _squarefree_dual,
    monomial_str,
)
from .record import Record, _set


def _check_star(n: int, t: int):
    """Reject an (n, t) that names no J_t(K_{1,n})."""
    _check_positive("n", n)
    _check_positive("t", t)
    if t > n:
        raise ValueError(f"t={t} exceeds the number of leaves n={n}")


def is_partial_cover(g: Graph, t: int, cover) -> bool:
    """Whether every vertex is in the set or has at most t-1 neighbours outside.

    Vertices of degree below t satisfy the condition vacuously.
    """
    _check_positive("t", t)
    members = set(cover)
    unknown = members - set(g.vertices)
    if unknown:
        raise ValueError(f"cover contains unknown vertices: {sorted(unknown)}")
    for x in g.vertices:
        if x in members:
            continue
        outside = sum(1 for y in g.neighbors(x) if y not in members)
        if outside > t - 1:
            return False
    return True


def enumerate_minimal_partial_covers(g: Graph, t: int) -> list[tuple[str, ...]]:
    """All inclusion-minimal partial t-covers, in (size, vertex index) order."""
    _check_positive("t", t)
    found: list[set[str]] = []
    for size in range(g.n + 1):
        for combo in itertools.combinations(g.vertices, size):
            w = set(combo)
            if any(k <= w for k in found):
                continue
            if is_partial_cover(g, t, w):
                found.append(w)
    order = {v: i for i, v in enumerate(g.vertices)}
    covers = [tuple(sorted(w, key=order.__getitem__)) for w in found]
    return sorted(covers, key=lambda w: (len(w), tuple(order[v] for v in w)))


def _stars(g: Graph, t: int) -> list[tuple[str, ...]]:
    """The closed t-stars (x, *S): every vertex x and t-subset S of N(x)."""
    _check_positive("t", t)
    return [
        (x, *subset)
        for x in g.vertices
        for subset in itertools.combinations(g.neighbors(x), t)
    ]


def partial_cover_ideal(g: Graph, t: int) -> MonomialIdeal:
    """J_t(g): the Alexander dual of the closed t-star products, i.e. the
    cover ideal of the hypergraph of closed t-stars.

    Vertices of degree below t contribute no star; if no vertex has
    degree at least t the dual of the zero ideal is the unit ideal.
    """
    return _squarefree_dual(g.vertices, _stars(g, t))


def star_generators(n: int, t: int) -> MonomialIdeal:
    """The closed-form generators of J_t of a star with n leaves.

    Ambient is (z, x1, ..., xn) with z the centre; the generators are z
    together with every product of n-t+1 distinct leaf variables.
    """
    _check_star(n, t)
    z, *leaves = ambient = star_graph(n).vertices
    return _squarefree(ambient, [(z,), *itertools.combinations(leaves, n - t + 1)])


def generalized_edge_ideal(g: Graph, t: int) -> MonomialIdeal:
    """The Alexander dual of J_t(g): for t=1 the edge ideal, in general
    generated by x times the products of t-subsets of each N(x)."""
    ideal = _squarefree(g.vertices, _stars(g, t))
    if ideal.is_zero:
        raise ValueError(
            f"J_{t} is the unit ideal (no vertex has degree >= {t}); "
            "its dual is not defined"
        )
    return ideal


class GeneratorClassification(Record):
    """One minimal generator of J_t of a tree, classified in the frame of
    the special vertex x with neighbours y_1..y_d (leaves first, the one
    possible non-leaf neighbour last).

    kind is "i" (exactly d-t+1 of the y's divide it, x does not),
    "ii" (x divides it, no y does) or "iii" (x and y_d only).
    frame_divisors records which frame variables divide the generator.
    """

    __slots__ = ("generator", "kind", "frame_divisors")

    def __init__(
        self, generator: tuple[int, ...], kind: str, frame_divisors: tuple[str, ...],
    ):
        _set(self, "generator", generator)
        _set(self, "kind", kind)
        _set(self, "frame_divisors", frame_divisors)


class TreeGeneratorReport(Record):
    __slots__ = ("special_vertex", "frame", "t", "entries")  # frame: (x, y_1, ..., y_d)

    def __init__(
        self, special_vertex: str, frame: tuple[str, ...], t: int,
        entries: tuple[GeneratorClassification, ...],
    ):
        _set(self, "special_vertex", special_vertex)
        _set(self, "frame", frame)
        _set(self, "t", t)
        _set(self, "entries", entries)


def classify_tree_generators(g: Graph, t: int) -> TreeGeneratorReport:
    """Sort the minimal generators of J_t of a tree into the three forms
    they can take relative to the special vertex's frame.

    Needs t <= deg(x) for the special vertex x: otherwise form (i) would
    ask for a negative number of y-divisors and the frame says nothing.
    A generator fitting no form raises, since none should exist.
    """
    _check_positive("t", t)
    if not g.is_tree():
        raise ValueError("generator classification is defined for trees only")
    special = find_special_vertex(g)
    x = special.vertex
    ys = list(special.leaf_neighbors)
    if special.branch_neighbor is not None:
        ys.append(special.branch_neighbor)
    d = len(ys)
    if t > d:
        raise ValueError(
            f"t={t} exceeds deg({x})={d}; the special-vertex frame "
            "constrains generators only for t <= deg(x)"
        )
    y_last = ys[-1]
    ideal = partial_cover_ideal(g, t)
    entries = []
    for m in ideal.gens:
        div_x = m[g.index(x)] > 0
        div_ys = [y for y in ys if m[g.index(y)] > 0]
        if not div_x and len(div_ys) == d - t + 1:
            kind = "i"
        elif div_x and not div_ys:
            kind = "ii"
        elif div_x and div_ys == [y_last]:
            kind = "iii"
        else:
            raise ValueError(
                f"generator {monomial_str(m, g.vertices)} fits no form in the "
                f"frame x={x}, y={tuple(ys)}: divisors "
                f"{([x] if div_x else []) + div_ys}"
            )
        frame_divisors = tuple(([x] if div_x else []) + div_ys)
        entries.append(GeneratorClassification(m, kind, frame_divisors))
    return TreeGeneratorReport(x, (x, *ys), t, tuple(entries))
