"""Hypergraph cover ideals, chromatic numbers, and the stability gap family.

The family H_m (a centre z joined into every pair from m+2 other
vertices) has chromatic number 2 while the stability index of its cover
ideal grows linearly in m, so the classical bound chi - 1 <= astab can
be off by an arbitrary amount.  This module builds the family and
verifies both inequalities with the oracle.
"""

from __future__ import annotations

import itertools

from .associated import astab_tree, empirical_astab, tail_contradicts_astab
from .covers import star_generators
from .graphs import Hypergraph, star_graph
from .monomials import (
    MonomialIdeal,
    _check_positive,
    _squarefree_dual,
)
from .record import Record, _set

Coloring = dict[str, int]


def hypergraph_cover_ideal(h: Hypergraph) -> MonomialIdeal:
    """The ideal of minimal vertex covers (transversals) of h: the
    Alexander dual of its edge ideal."""
    return _squarefree_dual(h.vertices, h.edges)


def is_proper_coloring(h: Hypergraph, coloring: Coloring) -> bool:
    """No edge mono-colored; every vertex must be assigned."""
    missing = set(h.vertices) - coloring.keys()
    if missing:
        raise ValueError(f"coloring misses vertices: {sorted(missing)}")
    return all(len({coloring[v] for v in e}) > 1 for e in h.edges)


def find_coloring(h: Hypergraph, k: int) -> Coloring | None:
    """A proper coloring with colors 1..k, or None.

    Exhaustive over assignments with the first vertex pinned to color 1;
    color names are interchangeable, so this loses nothing.
    """
    if k < 1:
        raise ValueError(f"need at least one color, got k={k}")
    if h.n == 0:
        return {}
    first, rest = h.vertices[0], h.vertices[1:]
    for tail in itertools.product(range(1, k + 1), repeat=len(rest)):
        coloring = {first: 1, **dict(zip(rest, tail))}
        if is_proper_coloring(h, coloring):
            return coloring
    return None


def chromatic_number(h: Hypergraph) -> int:
    for k in range(1, max(h.n, 1) + 1):
        if find_coloring(h, k) is not None:
            return k
    raise AssertionError("n colors always suffice; unreachable")


def build_gap_family(m: int) -> Hypergraph:
    """H_m: the vertices z, x1..x_{m+2} of K_{1,m+2}, edges all
    {z, xi, xj} with i < j."""
    _check_positive("m", m)
    vertices = star_graph(m + 2).vertices
    z, *leaves = vertices
    edges = [(z, a, b) for a, b in itertools.combinations(leaves, 2)]
    return Hypergraph.build(vertices, edges)


class GapReport(Record):
    """Everything the chromatic-gap verification measured for one m.

    astab is the certified value from the tree formula (the cover ideal
    of H_m coincides with J_2 of a star); oracle_astab is the empirical
    tail start up to s_max and should agree, or None when s_max is too
    short to show a tail of length two.  gap_bound is chi - 1 + m.
    """

    __slots__ = (
        "m", "chi", "astab", "oracle_astab", "s_max", "gap_bound", "gap_holds",
        "gap_is_equality", "baseline_holds", "ideal_matches_star",
    )

    def __init__(
        self, m: int, chi: int, astab: int, oracle_astab: int | None, s_max: int,
        gap_bound: int, gap_holds: bool, gap_is_equality: bool, baseline_holds: bool,
        ideal_matches_star: bool,
    ):
        _set(self, "m", m)
        _set(self, "chi", chi)
        _set(self, "astab", astab)
        _set(self, "oracle_astab", oracle_astab)
        _set(self, "s_max", s_max)
        _set(self, "gap_bound", gap_bound)
        _set(self, "gap_holds", gap_holds)
        _set(self, "gap_is_equality", gap_is_equality)
        _set(self, "baseline_holds", baseline_holds)
        _set(self, "ideal_matches_star", ideal_matches_star)

    @property
    def all_checks_pass(self) -> bool:
        return not self.refuted and not self.tail_undetermined

    @property
    def tail_undetermined(self) -> bool:
        """No tail found because s_max <= astab is too short to show one.

        Past astab the formula says Ass^{s_max-1} = Ass^{s_max}, so a
        missing tail there refutes it and is not undetermined.
        """
        return self.oracle_astab is None and self.s_max <= self.astab

    @property
    def refuted(self) -> bool:
        """Some check came out false; an undetermined tail is not false."""
        return not (
            self.gap_holds and self.baseline_holds and self.ideal_matches_star
        ) or tail_contradicts_astab(self.oracle_astab, self.s_max, self.astab)


def verify_gap(m: int, s_max: int | None = None) -> GapReport:
    """Check chi(H_m) - 1 + m <= astab(J(H_m)) and the baseline bound.

    The certified astab comes from the star identity J(H_m) =
    J_2(K_{1,m+2}); the oracle recomputes the tail empirically up to
    s_max (default astab + 1).
    """
    _check_positive("m", m)
    h = build_gap_family(m)
    chi = chromatic_number(h)
    ideal = hypergraph_cover_ideal(h)
    star_form = star_generators(m + 2, 2)
    matches = ideal == star_form
    astab = astab_tree(star_graph(m + 2), 2)
    if s_max is None:
        s_max = astab + 1
    stability = empirical_astab(ideal, s_max)
    bound = chi - 1 + m
    return GapReport(
        m=m,
        chi=chi,
        astab=astab,
        oracle_astab=stability.astab_value,
        s_max=s_max,
        gap_bound=bound,
        gap_holds=bound <= astab,
        gap_is_equality=bound == astab,
        baseline_holds=chi - 1 <= astab,
        ideal_matches_star=matches,
    )
