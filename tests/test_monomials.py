"""Exact-arithmetic tests for the monomial ideal engine.

The fixed expectations in this file were worked out by hand (divisor
lists, intersections and colons on paper) before the implementation ran,
so they are independent of the code under test.
"""

import ast
import contextlib
import itertools
import math
import operator
import random
import re
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from decompositions import reference_decomposition
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from minimalizers import (
    reference_colon,
    reference_contains_ideal,
    reference_intersection,
    reference_minimalize,
    reference_power,
    reference_product,
    support_vector,
)
from powers_reference import reference_power_contains
from transversals import edge_ideal, reference_dual

import covertool
from covertool import loop, monomials, staircase
from covertool.associated import (
    astab_tree,
    build_star_witness,
    max_ideal_in_ass_star,
)
from covertool.catalog import graph_corpus, hypergraph_corpus
from covertool.cli import MAX_POWER, MAX_VARIABLES
from covertool.covers import (
    generalized_edge_ideal,
    partial_cover_ideal,
    star_generators,
)
from covertool.graphs import (
    Graph,
    broom,
    cycle_graph,
    double_star,
    path_graph,
    spider,
    star_graph,
)
from covertool.hypercovers import build_gap_family, hypergraph_cover_ideal
from covertool.monomials import (
    IrreducibleComponent,
    MonomialPrime,
    alexander_dual,
    associated_primes,
    associated_primes_of_powers,
    colon,
    contains,
    ideal_power,
    ideal_str,
    irreducible_decomposition,
    minimalize,
    monomial_from_str,
    monomial_str,
    power_contains,
    power_primes,
    prime_str,
    sorted_primes,
    unit_ideal,
    witness_search,
    zero_ideal,
)
from covertool.monomials import _classes as classes_of_gens
from covertool.loop import _components
from covertool.staircase import Box

X4 = ("x1", "x2", "x3", "x4")
ZX3 = ("z", "x1", "x2", "x3")


def mono(ambient, text):
    return monomial_from_str(text, ambient)


def ideal(ambient, *gens):
    return minimalize(ambient, [mono(ambient, g) for g in gens])


def support(e):
    return tuple(i for i, x in enumerate(e) if x)


def products(I, J):
    """Every product of a generator of I with one of J, unminimalized."""
    return [tuple(map(operator.add, g, h)) for g in I.gens for h in J.gens]


def lcms(I, J):
    """Every lcm of a generator of I with one of J, unminimalized."""
    return [tuple(map(max, g, h)) for g in I.gens for h in J.gens]


def _is_exponent_tuple(e):
    return type(e) is tuple and all(type(x) is int for x in e)


class TestMonomial:
    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError, match="negative"):
            minimalize(X4, [(1, 0, 0, 0), (1, -1, 0, 0)])

    def test_mismatched_lengths_raise(self):
        I = ideal(X4, "x1")
        with pytest.raises(ValueError):
            minimalize(X4, [(1, 0, 0, 0), (1, 0, 0, 0, 0)])
        with pytest.raises(ValueError):
            colon(I, (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            contains(I, (1, 0))

    def test_list_vector_rejected(self):
        with pytest.raises(ValueError, match=r"\[1, 0\]"):
            minimalize(("a", "b"), [[1, 0]])

    def test_float_exponent_rejected(self):
        with pytest.raises(ValueError, match=r"\(1\.5, 0\)"):
            minimalize(("a", "b"), [(1.5, 0)])

    def test_negative_colon_vector_rejected(self):
        I = minimalize(("a", "b"), [(1, 0)])
        with pytest.raises(ValueError, match=r"negative exponent in \(-1, 0\)"):
            colon(I, (-1, 0))

    def test_float_membership_vector_rejected(self):
        I = minimalize(("a", "b"), [(1, 0)])
        with pytest.raises(ValueError, match=r"\(2\.5, 0\)"):
            contains(I, (2.5, 0))

    def test_string_round_trip(self):
        for text in ("1", "x1", "x2^3", "x1*x3^2*x4"):
            assert monomial_str(mono(X4, text), X4) == text
        for bad in (
            "y1", "x1^", "x2*x1^", "x1^-1", "x2*x1^-1",
            # int() reads each of these exponents.
            "x1^1_0", "x1^\u0663", "x1^+2", "x1^ 2",
        ):
            with pytest.raises(ValueError):
                monomial_from_str(bad, X4)
        with pytest.raises(ValueError, match="^negative exponent in 'x1\\^-1'$"):
            monomial_from_str("x2*x1^-1", X4)

    def test_generators_are_plain_exponent_tuples(self):
        I = ideal(X4, "x2", "x3", "x1*x4")
        ideals = [
            I,
            ideal_power(I, 3),
            colon(I, mono(X4, "x1")),
            partial_cover_ideal(star_graph(4), 2),
        ]
        for J in ideals:
            assert J.gens and all(map(_is_exponent_tuple, J.gens)), J
        assert _is_exponent_tuple(mono(X4, "x1*x3^2"))
        assert _is_exponent_tuple(build_star_witness(4, 2, 3).T)


class TestMinimalize:
    def test_drops_multiples_and_sorts(self):
        I = ideal(X4, "x2", "x3", "x1*x4", "x2*x3", "x2^2*x4")
        assert ideal_str(I) == "[x2, x3, x1*x4]"
        assert str(I) == "[x2, x3, x1*x4]"

    def test_canonical_order_is_degree_then_earliest_variable(self):
        I = ideal(ZX3, "x2*x3", "z", "x1*x3", "x1*x2")
        assert ideal_str(I) == "[z, x1*x2, x1*x3, x2*x3]"

    def test_idempotent(self):
        I = ideal(X4, "x1*x2", "x3")
        assert minimalize(I.ambient, list(I.gens)) == I

    def test_generators_from_an_iterator(self):
        vectors = [(1, 0), (0, 1), (1, 1)]
        expected = minimalize(("a", "b"), vectors)
        assert minimalize(("a", "b"), iter(vectors)) == expected

    def test_wrong_variable_count_rejected(self):
        with pytest.raises(ValueError):
            minimalize(X4, [(1, 0)])

    def test_unit_and_zero(self):
        assert unit_ideal(X4).is_unit
        assert zero_ideal(X4).is_zero
        assert ideal(X4, "1", "x1").is_unit


class TestIdealArithmetic:
    def test_square_of_path_cover_ideal(self):
        I = ideal(X4, "x2", "x3", "x1*x4")
        expected = ideal(
            X4, "x2^2", "x2*x3", "x3^2", "x1*x2*x4", "x1*x3*x4", "x1^2*x4^2"
        )
        assert ideal_power(I, 2) == expected

    def test_power_edge_cases(self):
        I = ideal(X4, "x1*x2")
        assert ideal_power(I, 0) == unit_ideal(X4)
        assert ideal_power(I, 1) == I
        assert ideal_power(I, 3) == ideal(X4, "x1^3*x2^3")
        assert ideal_power(zero_ideal(X4), 2).is_zero
        with pytest.raises(ValueError):
            ideal_power(I, -1)

    def test_power_must_be_an_int(self):
        # Exponents no other test asks for, so that no memo entry under
        # an equal int answers first.
        I = ideal(X4, "x1^5*x2^7", "x3^3")
        for s in (2.0, 2.5, True, "2", None):
            with pytest.raises(ValueError, match=re.escape(f"power {s!r} is not")):
                ideal_power(I, s)
        for s in (2.0, 2.5, True):
            message = f"s_max must be a positive integer, got {s}"
            with pytest.raises(ValueError, match=message):
                associated_primes_of_powers(I, s)

    def test_intersection_of_neighbour_primes(self):
        left = ideal(X4, "x1", "x2", "x3")
        right = ideal(X4, "x2", "x3", "x4")
        assert reference_intersection(left, right) == ideal(X4, "x2", "x3", "x1*x4")

    def test_colon_by_monomial(self):
        I = ideal(ZX3, "z", "x1*x2*x3")
        assert colon(I, mono(ZX3, "x1*x2")) == ideal(ZX3, "z", "x3")
        assert colon(I, mono(ZX3, "1")) == I
        assert colon(I, mono(ZX3, "z")).is_unit

    def test_membership(self):
        I = ideal(X4, "x2", "x1*x4")
        assert contains(I, mono(X4, "x2^3*x3"))
        assert contains(I, mono(X4, "x1*x2*x4"))
        assert not contains(I, mono(X4, "x1*x3"))
        assert not contains(I, mono(X4, "1"))

    def test_ideal_containment(self):
        I = ideal(X4, "x2", "x3", "x1*x4")
        assert reference_contains_ideal(I, ideal_power(I, 2))
        assert not reference_contains_ideal(ideal_power(I, 2), I)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            colon(ideal(X4, "x1"), (1, 0))


class TestMatchesPairwiseReference:
    def test_graph_corpus_powers(self):
        # Each J_t^s (s <= 3) is also added to the next J_t' of the same
        # graph, and divided by the product of all variables and by its
        # own last generator; its products and lcms with that J_t' are
        # minimalized.  The mixed products stop at s = 2: at s = 3 the
        # pairwise reference alone takes several seconds on K_{1,6}.
        for name, g in graph_corpus():
            covers = [
                partial_cover_ideal(g, t) for t in range(1, g.max_degree() + 1)
            ]
            full = (1,) * g.n
            for t, J in enumerate(covers, start=1):
                other = covers[t % len(covers)]
                for s in (1, 2, 3):
                    key = (name, t, s)
                    power = ideal_power(J, s)
                    assert power == reference_power(J, s), key
                    if s >= 2:
                        assert _held_pair_agrees(J, s, power.gens), key
                    for m in (full, power.gens[-1]):
                        assert colon(power, m) == reference_colon(power, m), key
                    mixed = [list(power.gens + other.gens)]
                    if s < 3:
                        mixed += [products(power, other), lcms(power, other)]
                    for vectors in mixed:
                        assert minimalize(
                            g.vertices, vectors
                        ) == reference_minimalize(g.vertices, vectors), key

    def test_star_power_with_1393_generators(self):
        J = partial_cover_ideal(star_graph(6), 3)
        power = ideal_power(J, 4)
        assert len(power.gens) == 1393
        assert power == reference_power(J, 4)


def _boundary_ideals():
    """Ideals whose exponents sit at the edges of a packed field: 2^k - 1
    fills k bits and 2^k needs one more, so a field without its guard
    bit, or one bit too narrow, borrows or carries into a neighbour."""
    for k in range(1, 7):
        for v in (2**k - 1, 2**k):
            yield [
                (v, 0, 0),
                (0, v, 0),
                (0, 0, v),
                (v - 1, 1, 0),
                (1, v - 1, 1),
                (0, 1, v - 1),
                (v - 1, v - 1, 1),
            ]
            yield [(v, v, 0), (v, 0, v), (0, v, v), (1, v, 1)]
    big = 2**70
    yield [(big, 0, 0), (1, 1, 0), (0, 3, 0), (0, 0, big - 1)]
    yield [(big, 1, 0), (big - 1, 0, 1), (0, big, big), (3, 2, 2), (1, 0, 5)]
    yield [(big, 0, 2), (1, big, 0), (2, 1, 1), (0, 2, 7), (5, 0, 0)]


def _close(vectors, blocks):
    """Every image of the vectors under permutations within the blocks."""
    closed = set()
    for e in vectors:
        images = [itertools.permutations(block) for block in blocks]
        for arrangement in itertools.product(*images):
            v = list(e)
            for block, image in zip(blocks, arrangement):
                for i, j in zip(block, image):
                    v[j] = e[i]
            closed.add(tuple(v))
    return sorted(closed)


def _symmetric_boundary_ideals():
    """Ideals fixed by permuting the first three of four variables, with
    exponents at 2^k - 1 and 2^k: the canonical vectors and the
    decomposition's `top` then sit on either side of a field width."""
    for k in range(1, 7):
        for v in (2**k - 1, 2**k):
            yield _close(
                [(v, 0, 0, 1), (v - 1, 1, 0, 0), (1, 1, 1, v - 1), (0, 0, 0, v)],
                [(0, 1, 2)],
            )
            yield _close([(v, v - 1, 0, 0), (v, 1, 1, 1), (0, 0, 0, v)], [(0, 1, 2)])


def _slot_boundary_vectors():
    """Vector sets for the minimalizer's slots of kept vectors.  With 1-4
    variables and exponents at 2^k - 1 and 2^k the fields fill a slot to
    every bit count modulo 8, so the slot guard sits just above the
    fields or several bits above them; the exponents go up to 2^70."""
    values = [2**k - 1 for k in range(1, 10)] + [2**k for k in range(1, 10)]
    for nvars in range(1, 5):
        for v in [*values, 2**70 - 1, 2**70]:
            units = [
                tuple(v if j == i else 0 for j in range(nvars)) for i in range(nvars)
            ]
            # One degree level: every vector meets an empty pool.
            yield units
            # One kept vector, with a multiple and a near miss above it.
            u = units[-1]
            yield [u, tuple(x + 1 for x in u), (1,) * (nvars - 1) + (v - 1,)]
            # Kept vectors that exceed a candidate in several fields, the
            # last one included, next to slots that divide it.
            rng = random.Random(f"{nvars} {v}")
            entries = (0, 1, v - 1, v)
            yield [tuple(rng.choice(entries) for _ in range(nvars)) for _ in range(40)]


# The decomposition's `top` (one more than the largest exponent) at
# 2^k - 1 fills k bits and at 2^k needs one more; with 1-7 variables the
# fields of a slot then end on every bit count modulo 8.
_SLOT_TOPS = sorted({t for k in range(1, 10) for t in (2**k - 1, 2**k)} - {1})


def _slot_boundary_ideals():
    """Small ideals in 1-7 variables whose `top` is each of _SLOT_TOPS:
    random generators on the exponents 0, 1, top - 2 and top - 1, with a
    pure power of the last variable that reaches top - 1."""
    for nvars in range(1, 8):
        ambient = tuple(f"x{i}" for i in range(nvars))
        for top in _SLOT_TOPS:
            rng = random.Random(f"{nvars} {top}")
            entries = (0, 1, top - 2, top - 1)
            gens = [tuple(rng.choice(entries) for _ in range(nvars)) for _ in range(12)]
            gens = [g for g in gens if any(g[:-1])]
            yield minimalize(ambient, gens + [(0,) * (nvars - 1) + (top - 1,)])


def _staircase(nvars, d):
    """The monomials of degree d, each variable's exponent d raised to
    d + its index: no two variables are interchangeable, and there are
    C(d + nvars - 2, nvars - 1) components."""
    return minimalize(
        tuple(f"x{i}" for i in range(nvars)),
        [
            tuple(d + i if x == d else x for i, x in enumerate(e))
            for e in itertools.product(range(d + 1), repeat=nvars)
            if sum(e) == d
        ],
    )


def _large_pool_ideals():
    """Ideals the decomposition holds as more than 64 vectors, with the
    classes and generators it starts from: plain, and powers decomposed
    on the classes of their base (see `_powers`), where a star power
    drops dead slots in the middle of an orbit."""
    for nvars, d in [(3, 11), (4, 7), (5, 5)]:
        I = _staircase(nvars, d)
        yield I, (), I.gens
    for nvars in (4, 5):
        square = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) == 2]
        yield _held_power(minimalize(tuple(f"x{i}" for i in range(nvars)), square), 2)
    yield _held_power(star_generators(4, 2), 4)
    yield _held_power(partial_cover_ideal(spider(1, 1, 2), 2), 3)


def _held_power(I, s):
    """I^s, the classes of I and the canonical generators of I^s, as the
    engine holds the power."""
    return (ideal_power(I, s), *monomials._power(I, s))


class TestFieldWidthBoundaries:
    def test_decomposition_slots(self):
        widths = set()
        for I in _slot_boundary_ideals():
            top = 1 + max(map(max, I.gens))
            widths.add(I.nvars * (top.bit_length() + 1) % 8)
            assert irreducible_decomposition(I) == reference_decomposition(I), I
        assert widths == set(range(8))
        # `top` only marks absent variables, so any value above the
        # largest exponent decomposes the same ideal: the large pools are
        # decomposed at every boundary `top` from there on, and each
        # result must hold every orbit once, by its canonical vector.
        for I, classes, reps in _large_pool_ideals():
            expected = reference_decomposition(I)
            assert irreducible_decomposition(I) == expected, I
            if not classes:
                assert len(expected) > 64, I
            least = 1 + max(map(max, reps))
            for top in [t for t in _SLOT_TOPS if t >= least]:
                found = _components(reps, I.nvars, top, classes)
                vectors = [
                    tuple(dict(c.bounds).get(i, top) for i in range(I.nvars))
                    for c in expected
                ]
                assert len(set(found)) == len(found), (I, top)
                assert list(_canonical_filter(found, classes)) == found, (I, top)
                assert _close(found, classes) == sorted(vectors), (I, top)

    def test_minimalizer_slots(self):
        for vectors in _slot_boundary_vectors():
            ambient = tuple(f"x{i}" for i in range(len(vectors[0])))
            assert minimalize(ambient, vectors) == reference_minimalize(
                ambient, vectors
            ), vectors

    def test_minimalize_product_power(self):
        for vectors in _boundary_ideals():
            ambient = ("a", "b", "c")
            # Every pairwise lcm, so that divisibility is decided between
            # vectors that differ at the field edge.
            mixed = vectors + [
                tuple(map(max, u, w)) for u in vectors for w in vectors
            ]
            assert minimalize(ambient, mixed) == reference_minimalize(
                ambient, mixed
            ), vectors
            I = reference_minimalize(ambient, vectors)
            assert minimalize(ambient, vectors) == I
            squares = products(I, I)
            assert minimalize(ambient, squares) == reference_minimalize(
                ambient, squares
            ), vectors
            assert ideal_power(I, 3) == reference_power(I, 3), vectors

    def test_decomposition(self):
        for vectors in _boundary_ideals():
            I = minimalize(("a", "b", "c"), vectors)
            for power in (I, ideal_power(I, 2)):
                assert irreducible_decomposition(power) == reference_decomposition(
                    power
                ), vectors

    def test_symmetric_ideals(self):
        ambient = ("a", "b", "c", "d")
        for vectors in _symmetric_boundary_ideals():
            I = minimalize(ambient, vectors)
            assert I == reference_minimalize(ambient, vectors), vectors
            found = classes_of_gens(I.gens, 4)
            assert any({0, 1, 2} <= set(c) for c in found), vectors
            assert ideal_power(I, 3) == reference_power(I, 3), vectors
            for power in (I, ideal_power(I, 2)):
                expected = reference_decomposition(power)
                assert irreducible_decomposition(power) == expected, vectors
                assert _orbits_agree(power, expected), vectors


def _classes(I):
    return classes_of_gens(I.gens, I.nvars)


def _canonical_filter(vectors, classes):
    """The vectors whose entries decrease within every class, in order."""
    return tuple(
        e
        for e in vectors
        if all(
            [e[i] for i in cls] == sorted((e[i] for i in cls), reverse=True)
            for cls in classes
        )
    )


def _orbits_agree(I, components):
    """Whether the component vectors of I computed on orbit
    representatives by the incremental loop are one canonical vector per
    orbit and expand to exactly the given components."""
    gens = I.gens
    classes = classes_of_gens(gens, I.nvars)
    top = 1 + max(map(max, gens))
    found = _components(_canonical_filter(gens, classes), I.nvars, top, classes)
    expected = [
        tuple(dict(c.bounds).get(i, top) for i in range(I.nvars)) for c in components
    ]
    canonical = list(_canonical_filter(found, classes)) == found
    distinct = len(set(found)) == len(found)
    return canonical and distinct and _close(found, classes) == sorted(expected)


class TestInterchangeableVariables:
    def test_star_leaves_form_one_class(self):
        for n in range(2, 7):
            for t in range(1, n):
                J = partial_cover_ideal(star_graph(n), t)
                leaves = tuple(range(1, n + 1))
                assert _classes(J) == (leaves,), (n, t)
                assert _classes(ideal_power(J, 2)) == (leaves,), (n, t)
            # J_n is generated by all the variables, so z joins the leaves.
            J = partial_cover_ideal(star_graph(n), n)
            assert _classes(J) == (tuple(range(n + 1)),)

    def test_sibling_leaves_form_one_class(self):
        g = broom(3, 3)  # x1 - x2 - x3 with leaves b1, b2, b3 at x3
        bristles = tuple(g.index(f"b{j}") for j in (1, 2, 3))
        for t in (1, 2):
            assert _classes(partial_cover_ideal(g, t)) == (bristles,), t
        g = spider(1, 1, 2)  # legs a1_1 and a2_1 are sibling leaves at c
        legs = (g.index("a1_1"), g.index("a2_1"))
        for t in (1, 2):
            assert _classes(partial_cover_ideal(g, t)) == (legs,), t

    def test_gap_family_variables_form_one_class(self):
        for m in (1, 2, 3):
            I = hypergraph_cover_ideal(build_gap_family(m))
            assert _classes(I) == (tuple(range(1, m + 3)),), m

    def test_equal_profiles_without_a_swap_stay_apart(self):
        # In J_1(P4) = <x2*x3, x1*x3, x2*x4> the ends x1, x4 (and the
        # middles x2, x3) have the same exponents, but swapping only the
        # ends maps x1*x3 to x3*x4, which is not a generator.
        I = partial_cover_ideal(path_graph(4), 1)
        assert I == ideal(X4, "x2*x3", "x1*x3", "x2*x4")
        assert _classes(I) == ()

    def test_trivial_classes(self):
        assert _classes(partial_cover_ideal(path_graph(4), 1)) == ()
        for t in (1, 2):
            C5 = partial_cover_ideal(cycle_graph(5), t)
            assert _classes(C5) == (), t
            assert _classes(ideal_power(C5, 2)) == (), t

    def test_moved_centre_gives_reindexed_components(self):
        # The benchmark moves the centre of K_{1,6} to other slots; the
        # classes move with it and the components are the same up to the
        # renaming of the variables.  Each power has at least 64
        # generators, so it is decomposed on orbit representatives.
        base = star_graph(6)
        for t, s in ((2, 3), (4, 2), (5, 3)):
            expected = irreducible_decomposition(
                ideal_power(partial_cover_ideal(base, t), s)
            )
            for slot in range(base.n):
                order = list(base.vertices[1:])
                order.insert(slot, "z")
                g = Graph(tuple(order), base.edges)
                J = partial_cover_ideal(g, t)
                leaves = tuple(i for i in range(g.n) if i != slot)
                assert _classes(J) == (leaves,), (t, slot)
                power = ideal_power(J, s)
                assert len(power.gens) >= 64, (t, s)
                position = [base.index(v) for v in g.vertices]
                renamed = [
                    tuple(sorted((position[i], e) for i, e in c.bounds))
                    for c in irreducible_decomposition(power)
                ]
                renamed.sort(key=lambda c: (len(c), c))
                assert renamed == [c.bounds for c in expected], (t, s, slot)


def _corpus_powers():
    """Every J_t^s of the graph corpus up to the stability index plus one
    (s <= 3 off trees), with its base."""
    for name, g in graph_corpus():
        for t in range(1, g.max_degree() + 1):
            J = partial_cover_ideal(g, t)
            s_max = astab_tree(g, t) + 1 if g.is_tree() else 3
            for s in range(1, s_max + 1):
                yield (name, t, s), J, ideal_power(J, s)


def _held_pair_agrees(J, s, gens):
    """Whether the engine holds J^s, s >= 2, as the classes of J and,
    under them, the canonical filter of gens, the generators of J^s,
    whose orbits expand to gens and to `ideal_power`, each member once."""
    classes, reps = monomials._power(J, s)
    return (
        classes == classes_of_gens(J.gens, J.nvars)
        and tuple(reps) == _canonical_filter(gens, classes)
        and sorted(monomials._orbits(reps, classes)) == sorted(gens)
    )


def _shut_gates(monkeypatch):
    """Shut both gates: the walk steps every power as a pair
    (`_walk_box`), and every decomposition and square-free dual takes
    the incremental loop (`_box`)."""
    monkeypatch.setattr(monomials, "_walk_box", lambda I, s_max: None)
    monkeypatch.setattr(monomials, "_box", lambda radix: None)


class TestHeldRepresentatives:
    def test_corpus_powers_hold_canonical_generators(self):
        for key, J, power in _corpus_powers():
            if key[2] >= 2:
                assert _held_pair_agrees(J, key[2], power.gens), key

    def test_primes_are_component_supports(self):
        cells = [(key, power) for key, _, power in _corpus_powers()]
        for n, t, s in ((7, 2, 7), (8, 3, 4)):
            J = partial_cover_ideal(star_graph(n), t)
            cells.append(((f"K1_{n}", t, s), ideal_power(J, s)))
        for key, power in cells:
            supports = {c.support for c in irreducible_decomposition(power)}
            assert {p.support for p in associated_primes(power)} == supports, key

    def test_every_decomposed_pair_holds_the_classes_of_its_base(self, monkeypatch):
        # Every pair `_decompose` reads, I's own included, carries the
        # classes of I, with the gates as they are and shut, where every
        # read goes to the incremental loop.
        ideals = [
            partial_cover_ideal(g, t)
            for _, g in graph_corpus()
            for t in range(1, g.max_degree() + 1)
        ]
        ideals += [hypergraph_cover_ideal(h) for _, h in hypergraph_corpus()]
        ideals += [star_generators(n, t) for n in range(1, 8) for t in range(1, n + 1)]
        for shut in (False, True):
            if shut:
                _shut_gates(monkeypatch)
            for I in ideals:
                irreducible_decomposition.cache_clear()  # a memo hides the call
                with mock.patch.object(
                    monomials, "_decompose", wraps=monomials._decompose
                ) as spy:
                    associated_primes(I)
                    irreducible_decomposition(I)
                    for s in range(1, 4):
                        power_primes(I, s)
                    associated_primes_of_powers(I, 3)
                classes = classes_of_gens(I.gens, I.nvars)
                held = [call.args[1] for call in spy.call_args_list]
                assert held and all(
                    type(c) is tuple and c == classes for c in held
                ), (shut, I)
                assert next(monomials._powers(I)) == monomials._pair(I), I


class TestDecomposition:
    def test_embedded_prime_textbook_case(self):
        # <x1^2, x1*x2> = <x1> meet <x1^2, x2>
        I = ideal(X4[:2], "x1^2", "x1*x2")
        comps = irreducible_decomposition(I)
        assert [c.bounds for c in comps] == [((0, 1),), ((0, 2), (1, 1))]
        assert associated_primes(I) == {
            MonomialPrime(frozenset({0})),
            MonomialPrime(frozenset({0, 1})),
        }

    def test_two_variable_symmetric_case(self):
        # <x^2 y, x y^2> = <x> meet <y> meet <x^2, y^2>
        I = ideal(("x", "y"), "x^2*y", "x*y^2")
        comps = irreducible_decomposition(I)
        assert [c.bounds for c in comps] == [
            ((0, 1),),
            ((1, 1),),
            ((0, 2), (1, 2)),
        ]

    def test_path_cover_ideal(self):
        I = ideal(X4, "x2", "x3", "x1*x4")
        assert associated_primes(I) == {
            MonomialPrime(frozenset({0, 1, 2})),
            MonomialPrime(frozenset({1, 2, 3})),
        }

    def test_irreducible_input_is_its_own_decomposition(self):
        I = ideal(X4, "x1^3", "x3^2")
        comps = irreducible_decomposition(I)
        assert len(comps) == 1
        assert comps[0].bounds == ((0, 3), (2, 2))
        assert comps[0].as_ideal(X4) == I

    def test_components_intersect_back(self):
        I = ideal(X4, "x2", "x3", "x1*x4")
        J = ideal_power(I, 3)
        acc = None
        for comp in irreducible_decomposition(J):
            part = comp.as_ideal(X4)
            acc = part if acc is None else reference_intersection(acc, part)
        assert acc == J

    def test_matches_splitting_reference_on_corpus(self):
        cells = [
            ((name, t), partial_cover_ideal(g, t), (1, 2))
            for name, g in graph_corpus()
            for t in range(1, g.max_degree() + 1)
        ]
        for name, h in hypergraph_corpus():
            cells.append(((name, "cover"), hypergraph_cover_ideal(h), (1, 2, 3)))
            cells.append(((name, "edges"), edge_ideal(h), (1, 2, 3)))
        for key, base, powers in cells:
            for s in powers:
                power = ideal_power(base, s)
                expected = reference_decomposition(power)
                assert irreducible_decomposition(power) == expected, (key, s)
                assert _orbits_agree(power, expected), (key, s)

    def test_rejects_unit_and_zero(self):
        with pytest.raises(ValueError, match="unit ideal"):
            irreducible_decomposition(unit_ideal(X4))
        with pytest.raises(ValueError, match="zero ideal"):
            irreducible_decomposition(zero_ideal(X4))
        with pytest.raises(ValueError):
            associated_primes(zero_ideal(X4))

    def test_component_bounds_validated(self):
        with pytest.raises(ValueError):
            IrreducibleComponent(((0, 0),))


class TestPrimes:
    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            MonomialPrime(frozenset())

    def test_labels_and_ideal(self):
        p = MonomialPrime(frozenset({0, 2}))
        assert p.labels(X4) == ("x1", "x3")
        assert p.as_ideal(X4) == ideal(X4, "x1", "x3")
        assert prime_str(p, X4) == "<x1, x3>"

    def test_sorted_primes_order(self):
        primes = [
            MonomialPrime(frozenset({1, 2, 3})),
            MonomialPrime(frozenset({0, 2})),
            MonomialPrime(frozenset({0, 1})),
        ]
        assert [p.indices for p in sorted_primes(primes)] == [
            (0, 1),
            (0, 2),
            (1, 2, 3),
        ]


class TestWitnessSearch:
    def test_finds_expected_witness(self):
        I = ideal(ZX3, "z", "x1*x2*x3")
        P = MonomialPrime(frozenset({0, 1}))
        assert witness_search(I, P) == mono(ZX3, "x2*x3")

    def test_no_witness_for_non_associated_prime(self):
        I = ideal(ZX3, "z", "x1*x2*x3")
        assert witness_search(I, MonomialPrime(frozenset({1, 2}))) is None

    def test_agrees_with_associated_primes_small(self):
        I = ideal(X4, "x2", "x3", "x1*x4")
        ass = associated_primes(I)
        for size in (1, 2, 3, 4):
            import itertools

            for support in itertools.combinations(range(4), size):
                P = MonomialPrime(frozenset(support))
                found = witness_search(I, P) is not None
                assert found == (P in ass)

    def test_rejects_degenerate_ideals(self):
        with pytest.raises(ValueError):
            witness_search(unit_ideal(X4), MonomialPrime(frozenset({0})))


class TestAlexanderDual:
    def test_path_cover_ideal_dual(self):
        I = ideal(X4, "x2", "x3", "x1*x4")
        assert alexander_dual(I) == ideal(X4, "x1*x2*x3", "x2*x3*x4")

    def test_involution(self):
        I = ideal(X4, "x1*x2", "x2*x3", "x3*x4")
        assert alexander_dual(alexander_dual(I)) == I

    def test_principal_squarefree(self):
        I = ideal(X4, "x1")
        assert alexander_dual(I) == I

    def test_degenerate_cases(self):
        assert alexander_dual(unit_ideal(X4)).is_zero
        assert alexander_dual(zero_ideal(X4)).is_unit

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            alexander_dual(ideal(X4, "x1^2"))

    def test_dual_generator_supports_are_associated_primes(self):
        # Alexander duality: for square-free ideals the dual's generators
        # correspond exactly to the (minimal) primes of the original,
        # and both are the minimal transversals found by brute force.
        I = ideal(X4, "x1*x2", "x2*x3", "x1*x3*x4")
        dual = alexander_dual(I)
        assert dual == reference_dual(I)
        dual_supports = {frozenset(support(g)) for g in dual.gens}
        ass_supports = {p.support for p in associated_primes(I)}
        assert dual_supports == ass_supports

    def test_matches_transversal_reference_on_corpus(self):
        for name, g in graph_corpus():
            for t in range(1, g.max_degree() + 1):
                cover = partial_cover_ideal(g, t)
                edges = generalized_edge_ideal(g, t)
                assert alexander_dual(cover) == reference_dual(cover), (name, t)
                assert alexander_dual(edges) == reference_dual(edges), (name, t)

    @pytest.mark.parametrize("n, t", [(9, 4), (10, 4), (10, 5)])
    def test_orbit_path_matches_transversal_reference(self, n, t, monkeypatch):
        # At least 64 generators in interchangeable leaves: with the
        # gates shut, the dual is read off a decomposition on orbit
        # representatives.
        leaves = tuple(range(1, n + 1))
        _shut_gates(monkeypatch)
        for I in (star_generators(n, t), generalized_edge_ideal(star_graph(n), t)):
            assert len(I.gens) >= 64
            assert classes_of_gens(I.gens, I.nvars) == (leaves,)
            with mock.patch.object(
                loop, "_components", wraps=loop._components
            ) as kernel:
                dual = alexander_dual(I)
            assert kernel.call_count == 1
            assert dual == reference_dual(I)
            assert alexander_dual(dual) == I

    def test_inside_the_limit_nothing_is_minimalized(self):
        # Inside the limit every square-free ideal is built from its
        # supports, and every square-free dual read off the staircase of
        # the {0,1} box on the variables in some generator: no
        # decomposition and no minimalization (every `minimalize` goes
        # through `_minimalize_exps`).  J_3 of the spider on 20 vertices
        # uses 4 of them, so it stays inside the limit.  P19 lies past
        # both the dual's gate and the walk's: there J_t is decomposed
        # and still nothing is minimalized.
        graphs = [g for _, g in graph_corpus()]
        cells = [(g, t) for g in graphs for t in range(1, g.max_degree() + 1)]
        spies = {}
        with contextlib.ExitStack() as stack:
            for name in ["_decompose", "_minimalize_exps", "minimalize"]:
                spies[name] = stack.enter_context(
                    mock.patch.object(monomials, name, wraps=getattr(monomials, name))
                )
            stars = [
                star_generators(n, t) for n in range(1, 11) for t in range(1, n + 1)
            ]
            edges = [generalized_edge_ideal(g, t) for g, t in cells]
            covers = [partial_cover_ideal(g, t) for g, t in cells]
            for I in stars + edges + covers:
                alexander_dual(I)
            for _, h in hypergraph_corpus():
                hypergraph_cover_ideal(h)
            assert len(partial_cover_ideal(spider(7, 7, 5), 3).ambient) == 20
            assert {key: spy.call_count for key, spy in spies.items()} == dict.fromkeys(
                spies, 0
            )
            edges = generalized_edge_ideal(path_graph(19), 1)
            assert monomials._box([2] * 19) is None
            assert monomials._walk_box(edges, 1) is None
            partial_cover_ideal(path_graph(19), 1)
            assert {key: spy.call_count for key, spy in spies.items()} == {
                "_decompose": 1,
                "_minimalize_exps": 0,
                "minimalize": 0,
            }

    def test_only_monomials_builds_vectors(self):
        # Every square-free ideal is built from its supports in
        # `monomials` (see `_squarefree`), so no other module calls the
        # general route from vectors.
        calls = []
        for path in sorted(Path(covertool.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "minimalize":
                        calls.append(path.stem)
        assert set(calls) <= {"monomials"}


def test_references_import_only_data_types():
    # The reference modules take from the package only its data types
    # and the trivial ideals, so that no engine routine is checked
    # against itself.  `star_shape` is the exception: the star
    # reference tries every subset where the engine grows stars.
    allowed = {
        "MonomialIdeal",
        "IrreducibleComponent",
        "unit_ideal",
        "zero_ideal",
        "Graph",
        "star_shape",
    }
    references = (
        "decompositions",
        "minimalizers",
        "powers_reference",
        "covers_reference",
        "transversals",
        "stars_reference",
    )
    extra = []
    for stem in references:
        path = Path(__file__).with_name(f"{stem}.py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                package, _, rest = name.partition(".")
                if package == "covertool" and rest.rpartition(".")[2] not in allowed:
                    extra.append((stem, name))
    assert extra == []


# Randomized law checks.  Everything is small (4 variables, up to 7
# generators, exponents up to 3) so the laws are exercised across many
# shapes rather than deeply; 7 generators in 4 variables are enough for
# redundant components and non-minimal products to occur.

NVARS = 4


def exponents(nvars=NVARS):
    return st.tuples(*([st.integers(0, 3)] * nvars))


@st.composite
def ideals_strategy(draw, nvars=NVARS, allow_trivial=False):
    gens = draw(st.lists(exponents(nvars), min_size=1, max_size=7))
    ambient = tuple(f"x{i}" for i in range(1, nvars + 1))
    result = minimalize(ambient, gens)
    if not allow_trivial and result.is_unit:
        result = minimalize(ambient, [tuple(e + 1 for e in g) for g in gens[:1]])
    return result


@st.composite
def symmetric_ideals_strategy(draw, nvars=NVARS):
    """A random ideal closed under a random partition of the variables
    into blocks, so that permuting within each block fixes it."""
    order = draw(st.permutations(range(nvars)))
    cuts = sorted(draw(st.sets(st.integers(1, nvars - 1))))
    blocks = [
        tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, nvars])
    ]
    small = st.tuples(*([st.integers(0, 2)] * nvars))
    gens = draw(st.lists(small, min_size=1, max_size=4))
    ambient = tuple(f"x{i}" for i in range(1, nvars + 1))
    result = minimalize(ambient, _close(gens, blocks))
    if result.is_unit:
        shifted = [tuple(e + 1 for e in g) for g in gens]
        result = minimalize(ambient, _close(shifted, blocks))
    return result, blocks


@settings(max_examples=60, deadline=None)
@given(symmetric_ideals_strategy())
def test_symmetric_power_and_decomposition(case):
    # The splitting reference is slow on cubes, so those are only
    # multiplied.
    I, blocks = case
    found = _classes(I)
    for block in blocks:
        assert len(block) == 1 or any(set(block) <= set(c) for c in found)
    for s in (1, 2, 3):
        power = ideal_power(I, s)
        assert power == reference_power(I, s), s
        if s >= 2:
            assert _held_pair_agrees(I, s, power.gens), s
        if s < 3:
            expected = reference_decomposition(power)
            assert irreducible_decomposition(power) == expected, s
            assert _orbits_agree(power, expected), s


@given(ideals_strategy(), exponents(), exponents())
def test_colon_membership_law(I, t, m):
    assert contains(colon(I, t), m) == contains(I, tuple(map(operator.add, m, t)))
    assert colon(I, t) == reference_colon(I, t)


@given(ideals_strategy(), ideals_strategy(), exponents())
def test_intersection_membership_law(I, J, m):
    both = contains(I, m) and contains(J, m)
    assert contains(reference_intersection(I, J), m) == both
    vectors = lcms(I, J)
    assert minimalize(I.ambient, vectors) == reference_minimalize(I.ambient, vectors)


@given(ideals_strategy(), ideals_strategy())
def test_product_inside_intersection(I, J):
    assert reference_contains_ideal(reference_intersection(I, J), reference_product(I, J))
    vectors = products(I, J)
    assert minimalize(I.ambient, vectors) == reference_minimalize(I.ambient, vectors)
    vectors = list(I.gens + J.gens)
    assert minimalize(I.ambient, I.gens + J.gens) == reference_minimalize(
        I.ambient, vectors
    )


@settings(max_examples=60)
@given(ideals_strategy())
def test_decomposition_round_trip(I):
    if I.is_zero or I.is_unit:
        return
    assert irreducible_decomposition(I) == reference_decomposition(I)
    acc = None
    for comp in irreducible_decomposition(I):
        part = comp.as_ideal(I.ambient)
        assert reference_contains_ideal(part, I)
        acc = part if acc is None else reference_intersection(acc, part)
    assert acc == I


@st.composite
def wide_ideals_strategy(draw):
    """Ideals in 6 or 7 variables from 10-40 generators with exponents up
    to 2, decomposed as dozens of components."""
    nvars = draw(st.sampled_from((6, 7)))
    small = st.tuples(*([st.integers(0, 2)] * nvars)).filter(any)
    gens = draw(st.lists(small, min_size=10, max_size=40))
    return minimalize(tuple(f"x{i}" for i in range(1, nvars + 1)), gens)


# A generator of this ideal adds no new component, and a tightening lies
# below another tightening of its step but below no kept component.
_WIDE_EXAMPLE = minimalize(
    tuple(f"x{i}" for i in range(1, 7)),
    [
        (2, 0, 0, 1, 0, 1),
        (0, 0, 0, 2, 2, 0),
        (2, 0, 0, 0, 2, 1),
        (1, 1, 1, 2, 0, 0),
        (1, 0, 1, 0, 1, 2),
        (0, 2, 1, 1, 1, 0),
        (0, 2, 1, 0, 2, 1),
        (0, 2, 1, 0, 1, 2),
        (0, 1, 2, 1, 1, 1),
        (2, 1, 2, 1, 2, 0),
    ],
)


def _step_kinds(I):
    """Replay the decomposition's steps on plain vectors, adding the
    generators of I in order: "none" names a step that adds no new
    component, "new-only" one with a tightening that lies below another
    tightening of the step but below no kept component."""
    nvars = I.nvars
    comps = [(1 + max(map(max, I.gens)),) * nvars]
    kinds = set()

    def below(c, others):
        return any(c != d and all(map(operator.le, c, d)) for d in others)

    for g in I.gens:
        missed = [c for c in comps if all(g[i] < c[i] for i in support(g))]
        kept = [c for c in comps if c not in missed]
        new = {c[:i] + (g[i],) + c[i + 1 :] for c in missed for i in support(g)}
        survivors = [c for c in new if not below(c, kept) and not below(c, new)]
        if not survivors:
            kinds.add("none")
        if any(below(c, new) and not below(c, kept) for c in new):
            kinds.add("new-only")
        comps = kept + survivors
    return kinds


def test_wide_example_has_both_step_kinds():
    assert len(_WIDE_EXAMPLE.gens) == 10
    assert _step_kinds(_WIDE_EXAMPLE) == {"none", "new-only"}


@settings(max_examples=30, deadline=None)
@example(_WIDE_EXAMPLE)
@given(wide_ideals_strategy())
def test_wide_decomposition_matches_reference(I):
    expected = reference_decomposition(I)
    assert irreducible_decomposition(I) == expected
    assert associated_primes(I) == {MonomialPrime(c.support) for c in expected}


def _kernels_agree(I):
    """Both decomposition kernels on the classes and representatives I
    finds from its generators: the staircase returns each
    canonical component vector once, the same set as the incremental
    loop, and their orbits are the reference decomposition.  Returns
    the classes, representatives and staircase vectors."""
    classes, reps = monomials._pair(I)
    box = Box(monomials._radices(reps, classes))
    top = max(box.radix)
    stair = monomials._staircase(box, reps, classes, top)
    expected = [
        tuple(dict(c.bounds).get(i, top) for i in range(I.nvars))
        for c in reference_decomposition(I)
    ]
    assert len(set(stair)) == len(stair), I
    assert set(stair) == set(_components(reps, I.nvars, top, classes)), I
    assert set(_canonical_filter(stair, classes)) == set(stair), I
    assert _close(stair, classes) == sorted(expected), I
    return classes, reps, stair


@settings(max_examples=30, deadline=None)
@example((_WIDE_EXAMPLE, []))
@given(
    st.one_of(
        symmetric_ideals_strategy(),
        wide_ideals_strategy().map(lambda I: (I, [])),
    )
)
def test_staircase_matches_incremental_and_reference(case):
    I, _ = case
    for power in (I, ideal_power(I, 2)):
        _kernels_agree(power)


# The incremental loop runs only on the members of each orbit that some
# held component misses (see `_components`).  These check the members
# it picks against a test of every member, and the loop against the
# splitting reference where several held components pick different
# members.


def _members_missed_by_some(r, cs, classes):
    """Every member of the orbit of r, in `_orbits` order, that some
    vector of cs misses, each member tested on its own."""
    return [
        p
        for p in monomials._orbits([r], classes)
        if any(all(x < y for x, y in zip(p, c) if x) for c in cs)
    ]


def _draw_classes(draw, nvars):
    """The blocks of two or more members of a random partition of nvars
    variables."""
    order = draw(st.permutations(range(nvars)))
    cuts = sorted(draw(st.sets(st.integers(1, nvars - 1))))
    blocks = [tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, nvars])]
    return tuple(sorted(b for b in blocks if len(b) > 1))


@st.composite
def orbit_cases(draw):
    """A canonical generator r with entries 0 to 3, one to three
    canonical component vectors with entries 1 to 4, and the classes of
    a random partition of 4 to 7 variables: repeated and zero entries
    within a class, and bounds equal to entries, are common."""
    nvars = draw(st.integers(4, 7))
    classes = _draw_classes(draw, nvars)

    def canonical(v):
        return monomials._canonical(v, classes)

    r = canonical(draw(st.tuples(*[st.integers(0, 3)] * nvars)))
    vectors = st.tuples(*[st.integers(1, 4)] * nvars).map(canonical)
    cs = draw(st.lists(vectors, min_size=1, max_size=3))
    return r, cs, classes


@settings(max_examples=150, deadline=None)
# No classes: the second vector fails at the first variable.
@example(((1, 0, 2), [(2, 1, 3), (1, 4, 4)], ()))
# The only vector misses r in its class but not at the first variable.
@example(((2, 1, 1, 0), [(2, 3, 3, 3)], ((1, 2, 3),)))
# The first vector misses r alone, the second four members.
@example(((0, 2, 1, 0), [(1, 3, 2, 1), (1, 3, 3, 2)], ((1, 2, 3),)))
# r touches neither class.
@example(((3, 0, 0, 0, 0), [(4, 1, 1, 2, 2)], ((1, 2), (3, 4))))
@given(orbit_cases())
def test_missed_members_are_the_members_some_vector_misses(case):
    r, cs, classes = case
    assert loop._missed_members(r, cs, classes) == _members_missed_by_some(
        r, cs, classes
    )


@st.composite
def packed_sort_cases(draw):
    """A vector of 2 to 8 entries from 0 to top, for top 1 to 15, the
    classes of a random partition with at least one class, and top."""
    top = draw(st.integers(1, 15))
    nvars = draw(st.integers(2, 8))
    classes = _draw_classes(draw, nvars)
    assume(classes)
    return draw(st.tuples(*[st.integers(0, top)] * nvars)), classes, top


@settings(max_examples=200)
# Entries at top, which fill a field's exponent bits, in one class.
@example(((7, 0, 7, 3), ((0, 1, 2, 3),), 7))
# Two classes, one already sorted.
@example(((1, 15, 15, 2, 0), ((0, 2, 3), (1, 4)), 15))
@given(packed_sort_cases())
def test_packed_class_sort_is_canonical(case):
    # The packed sort keeps the guard bits and equals `_canonical` on
    # the unpacked vector.
    v, classes, top = case
    width, H = monomials._layout(top, len(v))
    low = (1 << (width - 1)) - 1
    touched = [[i * width for i in cls] for cls in classes]
    expected = monomials._pack(monomials._canonical(v, classes), width) | H
    packed = monomials._canonical_packed(monomials._pack(v, width) | H, touched, low)
    assert packed == expected


@st.composite
def two_block_ideals_strategy(draw):
    """Ideals in 5 or 6 variables closed under one or two blocks of
    interchangeable variables, from one to four generators with
    exponents up to 3: several held components miss members of one
    orbit, and classes hold repeated and zero entries."""
    nvars = draw(st.sampled_from((5, 6)))
    blocks = draw(
        st.sampled_from(
            [[(0, 1, 2), (3, 4)], [(0, 1, 2, 3)], [(1, 2, 3)], [(0, 1), (2, 3)]]
            + ([[(0, 1, 2), (3, 4, 5)]] if nvars == 6 else [])
        )
    )
    small = st.tuples(*[st.integers(0, 3)] * nvars)
    gens = draw(st.lists(small, min_size=1, max_size=4))
    ambient = tuple(f"x{i}" for i in range(1, nvars + 1))
    result = minimalize(ambient, _close(gens, blocks))
    if result.is_unit:
        result = minimalize(ambient, _close([(1,) * nvars], blocks))
    return result


@settings(max_examples=25, deadline=None)
# Found by a search: orbits of the square whose members two held
# components miss in different sets.
@example(
    minimalize(
        ("x1", "x2", "x3", "x4", "x5"),
        _close([(2, 3, 1, 1, 0), (2, 3, 0, 0, 3), (2, 2, 2, 2, 0)], [(1, 2, 3)]),
    )
)
# A generator touching no class, and an ideal with no classes.
@example(
    minimalize(
        ("a", "b", "c", "d", "e"),
        _close([(2, 0, 0, 0, 1), (0, 1, 1, 0, 2)], [(1, 2, 3)]),
    )
)
@example(
    minimalize(
        ("a", "b", "c", "d", "e"),
        [(2, 0, 1, 0, 1), (0, 1, 1, 3, 0), (1, 2, 0, 0, 2)],
    )
)
@given(two_block_ideals_strategy())
def test_incremental_loop_matches_reference_on_two_blocks(I):
    # The splitting reference takes seconds on squares of more than 20
    # generators, so those are decomposed at the first power only.
    for power in (I, ideal_power(I, 2)) if len(I.gens) <= 20 else (I,):
        assert _orbits_agree(power, reference_decomposition(power)), power


class TestOrbitSkip:
    def test_two_leaf_classes_past_the_limit(self):
        # The double stars with leaves 3 + 3 and 2 + 4: two classes of
        # leaves, and the 4th powers of J_1 and J_2 have 5^8 points.
        for a, b, t in [(3, 3, 1), (3, 3, 2), (2, 4, 1)]:
            power, classes, reps = _held_power(
                partial_cover_ideal(double_star(a, b), t), 4
            )
            assert [len(c) for c in classes] == [a, b], (a, b, t)
            assert monomials._box(monomials._radices(reps, classes)) is None, (a, b, t)
            expected = reference_decomposition(power)
            assert _orbits_agree(power, expected), (a, b, t)

    def test_held_components_pick_different_members(self, monkeypatch):
        # In the square of the searched example above, some orbit has
        # members that the first flagged component does not miss and a
        # later one does, so the loop must run on the union.
        I = minimalize(
            ("x1", "x2", "x3", "x4", "x5"),
            _close([(2, 3, 1, 1, 0), (2, 3, 0, 0, 3), (2, 2, 2, 2, 0)], [(1, 2, 3)]),
        )
        calls = []
        picked = loop._missed_members

        def recording(r, cs, classes):
            calls.append((r, cs, classes))
            return picked(r, cs, classes)

        monkeypatch.setattr(loop, "_missed_members", recording)
        square = ideal_power(I, 2)
        assert _orbits_agree(square, reference_decomposition(square))
        assert any(
            picked(r, cs[:1], classes) != picked(r, cs, classes)
            for r, cs, classes in calls
        )


def _is_corner(box, U, classes, x):
    """The corner definition at offset x, bit by bit (see
    `staircase.corners`): x is not in U and, on every axis i with
    radix_i > 1, x_i = radix_i - 1 or x + e_i is in U.  On an axis i
    after p in a class, x passes where x_p = x_i and fails where
    x_p < x_i."""
    if U >> x & 1:
        return False
    strides = [math.prod(box.radix[:i]) for i in range(len(box.radix))]
    digits = [x // stride % r for r, stride in zip(box.radix, strides)]
    before = {i: p for cls in classes for p, i in zip(cls, cls[1:])}
    for i, r in enumerate(box.radix):
        if i in before and digits[before[i]] <= digits[i]:
            if digits[before[i]] < digits[i]:
                return False
            continue
        if digits[i] < r - 1 and not U >> (x + strides[i]) & 1:
            return False
    return True


class TestStaircaseKernel:
    def test_radix_is_the_class_maximum(self):
        # The later leaves' columns of the held representatives have
        # smaller maxima than the first leaf's; a box read off the
        # columns would cut the orbits off.
        power = ideal_power(star_generators(4, 2), 3)
        classes, reps, _ = _kernels_agree(power)
        first, *rest = classes[0]
        columns = list(zip(*reps))
        assert any(max(columns[i]) < max(columns[first]) for i in rest)
        assert monomials._radices(reps, classes)[rest[-1]] == 1 + max(columns[first])

    def test_variable_in_no_generator(self):
        I = minimalize(("a", "b", "c", "d"), [(1, 0, 2, 0), (2, 0, 1, 1), (0, 0, 3, 2)])
        _, reps, stair = _kernels_agree(I)
        assert monomials._radices(reps, ())[1] == 1
        top = 1 + max(map(max, reps))
        assert all(v[1] == top for v in stair)

    def test_single_generator(self):
        I = minimalize(("a", "b", "c", "d"), [(2, 1, 0, 3)])
        _, _, stair = _kernels_agree(I)
        assert sorted(stair) == [(2, 4, 4, 4), (4, 1, 4, 4), (4, 4, 4, 3)]

    def test_runs_of_equal_entries_in_large_classes(self):
        # Corners with equal entries inside a class of five leaves, where
        # the x + e_i test is skipped and read at the start of the run.
        for n, t, s in [(5, 3, 2), (5, 2, 3), (6, 4, 2)]:
            power = ideal_power(star_generators(n, t), s)
            classes, reps, stair = _kernels_agree(power)
            leaves = max(classes, key=len)
            assert len(leaves) >= 3
            top = 1 + max(map(max, reps))
            assert any(
                v[i] == v[j] < top for v in stair for i, j in zip(leaves, leaves[1:])
            ), (n, t, s)

    def test_corner_scan_against_the_definition(self):
        # `_corner_offsets` skips the zero bytes of the mark set.  Boxes of
        # 81 and 625 points are one more than a multiple of 8, so the top
        # point, a corner whenever it is outside U, has a byte of its own.
        rng = random.Random(40)
        seen_low = seen_top = False
        for radix, classes in [
            ((3, 3, 3, 3), ()),
            ((3, 3, 3, 3), ((0, 1, 2),)),
            ((5, 5, 5, 5), ()),
            ((5, 5, 5, 5), ((0, 1), (2, 3))),
            ((2, 1, 3, 4), ()),
            ((4, 1, 4, 3), ((0, 2),)),
            ((7, 2, 1, 5), ()),
            ((2,), ()),
        ]:
            box = Box(radix)
            top = box.size - 1
            random_sets = [
                (rng.getrandbits(box.size) | rng.getrandbits(box.size) * dense)
                & ~(1 << top)
                for dense in (0, 1)
                for _ in range(10)
            ]
            for U in [0, box.full, *random_sets]:
                expected = [x for x in range(box.size) if _is_corner(box, U, classes, x)]
                got = staircase._corner_offsets(box, U, box.corner_tests(classes))
                assert got == expected, (radix, classes, U)
                seen_low |= any(x < 8 for x in expected)
                seen_top |= box.size % 8 == 1 and top in expected
        assert seen_low and seen_top

    def test_gate_at_the_box_limit(self, monkeypatch):
        # Boxes of 64^3 points, exactly the limit, and 5 * 13 * 37 * 109,
        # one more.
        limit = monomials._STAIRCASE_MAX_BITS
        at_limit = minimalize(
            ("a", "b", "c"), [(63, 0, 0), (0, 63, 0), (0, 0, 63), (20, 30, 10)]
        )
        above = minimalize(
            ("a", "b", "c", "d"),
            [(4, 0, 0, 0), (0, 12, 0, 0), (0, 0, 36, 0), (0, 0, 0, 108)]
            + [(2, 6, 18, 54)],
        )
        picked = []
        for module, name in ((monomials, "_staircase"), (loop, "_components")):
            kernel = getattr(module, name)
            monkeypatch.setattr(
                module,
                name,
                lambda *args, name=name, kernel=kernel: picked.append(name)
                or kernel(*args),
            )
        for I, box, kernel in [
            (at_limit, limit, "_staircase"),
            (above, limit + 1, "_components"),
        ]:
            assert math.prod(1 + max(column) for column in zip(*I.gens)) == box
            picked.clear()
            monomials._decompose(I.nvars, *monomials._pair(I))
            assert picked == [kernel], I
            _kernels_agree(I)


def _chain_agrees(I, s_max):
    """The power chain equals Ass of every power built and decomposed on
    its own.  Returns whether the walk's gate admits I^s_max
    (`_walk_box`), where the chain must build no power; past it the
    chain takes one step per power after I.  It never calls
    `ideal_power`."""
    with mock.patch.object(
        monomials, "_power_step", wraps=monomials._power_step
    ) as step, mock.patch.object(
        monomials, "ideal_power", wraps=ideal_power
    ) as power:
        got = associated_primes_of_powers(I, s_max)
    assert power.call_count == 0, I
    inside = monomials._walk_box(I, s_max) is not None
    assert step.call_count == (0 if inside else s_max - 1), I
    expected = [associated_primes(ideal_power(I, s)) for s in range(1, s_max + 1)]
    assert got == expected, (I, s_max)
    return inside


# Non-square-free ideals in which a class holds an exponent 2, so the
# masks x_i < radix_i - g_i with g_i >= 2 and the canonical corners both
# take part.
_CHAIN_EXAMPLES = [
    minimalize(X4, [(2, 0, 1, 0), (0, 2, 1, 0), (1, 1, 0, 3), (0, 0, 2, 2)]),
    minimalize(X4, [(2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 3, 1), (1, 1, 1, 1)]),
]


# The two ideals at the box limit: the box of GATE_INSIDE^3 is 64^3
# points, exactly the limit, and that of GATE_PAST^2 is 5 * 13 * 37 * 109,
# one more.
GATE_INSIDE = minimalize(
    ("a", "b", "c"), [(21, 0, 0), (0, 21, 0), (0, 0, 21), (7, 7, 7)]
)
GATE_PAST = minimalize(
    ("a", "b", "c", "d"),
    [(2, 0, 0, 0), (0, 6, 0, 0), (0, 0, 18, 0), (0, 0, 0, 54), (1, 3, 9, 27)],
)


class TestPowerChain:
    def test_every_tree_up_to_eight_vertices(self):
        inside = outside = 0
        for n in range(2, 9):
            for tree in nx.nonisomorphic_trees(n):
                g = Graph.build(map(str, tree.nodes), (map(str, e) for e in tree.edges))
                for t in range(1, g.max_degree() + 1):
                    if _chain_agrees(partial_cover_ideal(g, t), astab_tree(g, t) + 1):
                        inside += 1
                    else:
                        outside += 1
        # Past the limit: t = 2 on trees of maximum degree 5 or more on 7
        # vertices and 4 or more on 8 (box (Delta + 1)^n), and K_{1,7} at
        # t = 3 (box 5^8).
        assert (inside, outside) == (150, 15)

    def test_star_cells_inside_the_limit(self):
        # Each star walks up to astab + 1, or to the last power the
        # walk's gate admits.
        walked = []
        for n in range(2, 9):
            for t in range(1, n + 1):
                J = star_generators(n, t)
                s_max = astab_tree(star_graph(n), t) + 1
                while monomials._walk_box(J, s_max) is None:
                    s_max -= 1
                assert _chain_agrees(J, s_max)
                walked.append(s_max)
        assert len(walked) == 35 and sum(walked) == 96

    @settings(max_examples=40, deadline=None)
    @example((_CHAIN_EXAMPLES[0], []), 3)
    @example((_CHAIN_EXAMPLES[1], [(0, 1)]), 3)
    @given(
        st.one_of(
            symmetric_ideals_strategy(),
            ideals_strategy().map(lambda I: (I, [])),
        ),
        st.integers(1, 3),
    )
    def test_non_squarefree_ideals(self, case, s_max):
        I, _ = case
        assert _chain_agrees(I, s_max)

    def test_examples_have_exponent_two_in_a_class(self):
        for I in _CHAIN_EXAMPLES:
            classes = classes_of_gens(I.gens, I.nvars)
            assert any(g[i] >= 2 for g in I.gens for cls in classes for i in cls), I

    def test_variable_in_no_generator(self):
        I = minimalize(("a", "b", "c", "d"), [(1, 0, 2, 0), (2, 0, 1, 1), (0, 0, 3, 2)])
        assert _chain_agrees(I, 3)
        assert all(1 not in p.support for p in associated_primes_of_powers(I, 3)[-1])

    def test_single_power(self):
        for I in _CHAIN_EXAMPLES + [star_generators(4, 2)]:
            assert _chain_agrees(I, 1)
            assert associated_primes_of_powers(I, 1) == [associated_primes(I)]

    def test_gate_at_the_box_limit(self):
        # Past the limit the chain steps its powers.
        I, J = GATE_INSIDE, GATE_PAST
        limit = monomials._STAIRCASE_MAX_BITS
        assert math.prod(1 + 3 * max(column) for column in zip(*I.gens)) == limit
        assert math.prod(1 + 2 * max(column) for column in zip(*J.gens)) == limit + 1
        assert _chain_agrees(I, 3)
        assert not _chain_agrees(J, 2)

    def test_rejects_degenerate_input(self):
        for bad in (unit_ideal(X4), zero_ideal(X4)):
            with pytest.raises(ValueError, match="proper nonzero"):
                associated_primes_of_powers(bad, 2)
        with pytest.raises(ValueError, match="s_max must be a positive integer"):
            associated_primes_of_powers(star_generators(3, 2), 0)


def _single_agrees(I, s):
    """Ass of the one power I^s equals Ass of the power built and
    decomposed.  Returns whether the walk's gate admits I^s
    (`_walk_box`), where no power may be built and `ideal_power` is not
    called; past it the power takes s - 1 steps."""
    with mock.patch.object(
        monomials, "_power_step", wraps=monomials._power_step
    ) as step, mock.patch.object(
        monomials, "ideal_power", wraps=ideal_power
    ) as power:
        got = power_primes(I, s)
    inside = monomials._walk_box(I, s) is not None
    if inside:
        assert step.call_count == 0 and power.call_count == 0, I
    else:
        assert step.call_count == s - 1, I
    assert got == associated_primes(ideal_power(I, s)), (I, s)
    return inside


class TestSinglePower:
    @settings(max_examples=40, deadline=None)
    @example((_CHAIN_EXAMPLES[0], []), 3)
    @example((_CHAIN_EXAMPLES[1], [(0, 1)]), 2)
    @given(
        st.one_of(
            symmetric_ideals_strategy(),
            ideals_strategy().map(lambda I: (I, [])),
        ),
        st.integers(1, 3),
    )
    def test_matches_the_built_power(self, case, s):
        assert _single_agrees(case[0], s)

    def test_star_cells(self):
        inside = outside = 0
        for n in range(2, 7):
            for t in range(1, n + 1):
                J = star_generators(n, t)
                for s in range(1, astab_tree(star_graph(n), t) + 2):
                    if _single_agrees(J, s):
                        inside += 1
                    else:
                        outside += 1
        # Past the limit: K_{1,6} at t = 2, s = 5 and 6 (boxes 6^7, 7^7).
        assert (inside, outside) == (55, 2)

    def test_gate_at_the_box_limit(self):
        assert _single_agrees(GATE_INSIDE, 3)
        assert not _single_agrees(GATE_PAST, 2)

    def test_variable_in_no_generator(self):
        I = minimalize(("a", "b", "c", "d"), [(1, 0, 2, 0), (2, 0, 1, 1), (0, 0, 3, 2)])
        assert _single_agrees(I, 3)

    def test_rejects_a_bad_power(self):
        # The memo holds I and I^2 first: an untyped memo would find
        # (I, 2.0) under the equal key (I, 2) and (I, True) under (I, 1).
        for I in (GATE_INSIDE, GATE_PAST):
            ideal_power(I, 1)
            ideal_power(I, 2)
            for s in (2.0, 2.5, True, "2", None):
                message = re.escape(f"power {s!r} is not an int")
                with pytest.raises(ValueError, match=message):
                    ideal_power(I, s)
                with pytest.raises(ValueError, match=message):
                    power_primes(I, s)
                with pytest.raises(ValueError, match=message):
                    power_contains(I, s, [(0,) * I.nvars])
            for entry in (
                ideal_power, power_primes, lambda I, s: power_contains(I, s, [])
            ):
                with pytest.raises(ValueError, match="negative power"):
                    entry(I, -1)
            with pytest.raises(ValueError, match="proper nonzero"):
                power_primes(I, 0)
        for bad in (unit_ideal(X4), zero_ideal(X4)):
            with pytest.raises(ValueError, match="proper nonzero"):
                power_primes(bad, 2)

    def test_rejects_a_bad_point(self):
        I = ideal(X4, "x1*x2")
        for point, message in (
            ([1, 0, 0, 0], r"\[1, 0, 0, 0\] is not a tuple"),
            ((1, 0), "does not live in 4 variables"),
            ((1, -1, 0, 0), "negative exponent"),
        ):
            with pytest.raises(ValueError, match=message):
                power_contains(I, 2, [(0, 0, 0, 0), point])

    def test_zero_variables(self):
        # In no variable the unit ideal is {1}, with every power {1}, and
        # the zero ideal has no generator; () is their one point.
        one, zero = unit_ideal(()), zero_ideal(())
        for s in (0, 1, 2, 3):
            assert ideal_power(one, s) == one and str(ideal_power(one, s)) == "[1]"
            assert ideal_power(zero, s) == (one if s == 0 else zero)
            assert power_contains(one, s, [()]) == [True]
            assert power_contains(zero, s, [(), ()]) == [s == 0] * 2

    def test_generator_past_the_query_box(self):
        # a^3 divides no point with a < 3: the search must pass over it
        # there, where only b divides, and take it where it divides,
        # alone or twice.
        I = minimalize(("a", "b"), [(3, 0), (0, 1)])
        assert power_contains(I, 2, [(1, 0), (0, 1)]) == [False, False]
        assert power_contains(I, 2, [(1, 1), (0, 2), (3, 1), (6, 0)]) == [
            False, True, True, True,
        ]

    def test_membership_past_the_limit(self):
        # Membership builds no power at any size: on GATE_INSIDE^3 and
        # GATE_PAST^2, the corner of the power's box, the point below
        # it and the point halfway answer as the built power does, and
        # the corner lies in the power.
        for I, s in ((GATE_INSIDE, 3), (GATE_PAST, 2)):
            tops = tuple(s * max(column) for column in zip(*I.gens))
            points = [tops, tuple(x - 1 for x in tops), tuple(x // 2 for x in tops)]
            with mock.patch.object(
                monomials, "_power_step", wraps=monomials._power_step
            ) as step, mock.patch.object(
                monomials, "ideal_power", wraps=ideal_power
            ) as spy:
                got = power_contains(I, s, points)
            assert (step.call_count, spy.call_count) == (0, 0), I
            power = ideal_power(I, s)
            assert got == [contains(power, x) for x in points], I
            assert got[0], I


def _vector_supports(I, s):
    """Ass(I^s) by the vector reader: the supports of the canonical
    component vectors of the pair of I^s, expanded by `_orbits`."""
    classes, reps = monomials._power(I, s)
    top, vecs = monomials._decompose(I.nvars, classes, reps)
    return {
        frozenset(i for i, x in enumerate(v) if x != top)
        for v in monomials._orbits(vecs, classes)
    }


def _partly_in(classes, masks):
    """Whether some mask holds some but not all of the bits of a class."""
    wholes = [sum(1 << i for i in cls) for cls in classes]
    return any(0 < (m & w).bit_count() < w.bit_count() for m in masks for w in wholes)


def _masks_agree(I, s_max, reference=0):
    """The mask reader on the walk of I to s_max (`_walk`), and what
    `associated_primes_of_powers` and `power_primes` return, against the
    vector reader at every power, and against the splitting reference
    (`tests/decompositions.py`) up to I^reference.  Every orbit of masks
    is read once.  Returns the supports per power and whether some mask
    lies partly in a class."""
    classes, read, powers = monomials._walk(I, s_max)
    chain = associated_primes_of_powers(I, s_max)
    found, partly = [], False
    for s, value in enumerate(itertools.islice(powers, s_max), start=1):
        masks = read(value)
        partly |= _partly_in(classes, masks)
        orbits = monomials._mask_orbits(classes, masks)
        assert len(orbits) == len(set(orbits)), (I, s)
        supports = {
            frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in orbits
        }
        assert supports == _vector_supports(I, s), (I, s)
        assert {p.support for p in chain[s - 1]} == supports, (I, s)
        assert {p.support for p in power_primes(I, s)} == supports, (I, s)
        if s <= reference:
            expected = reference_decomposition(ideal_power(I, s))
            assert supports == {c.support for c in expected}, (I, s)
        found.append(supports)
    return found, partly


class TestSupportMasks:
    # The walk reads only the support masks of each power's canonical
    # components (`staircase.supports`, `_walk`'s pairs reader) and expands
    # their orbits on the masks (`_mask_orbits`).

    def test_corpus_chains_with_the_gate_open_and_shut(self, monkeypatch):
        chains = [
            ((name, t), partial_cover_ideal(g, t))
            for name, g in graph_corpus()
            for t in range(1, g.max_degree() + 1)
        ]
        for key, J in chains:
            # Open: every chain walks the box of J^4.
            assert monomials._walk_box(J, 4) is not None, key
        opened = [_masks_agree(J, 4, reference=2)[0] for _, J in chains]
        # Shut: every power is stepped as a pair and decomposed by the
        # incremental loop.
        _shut_gates(monkeypatch)
        with mock.patch.object(loop, "_components", wraps=loop._components) as kernel:
            shut = [_masks_agree(J, 4)[0] for _, J in chains]
        assert kernel.call_count >= 4 * len(chains)
        for (key, _), a, b in zip(chains, opened, shut):
            assert a == b, key

    def test_a_walk_builds_each_prime_once(self):
        # On a tree with a vertex of degree 4 or more most primes persist
        # from power to power; the sets of one walk share one object per
        # prime, so a prime in Ass(J^s) and Ass(J^(s+1)) is one object.
        trees = [
            (name, g) for name, g in graph_corpus() if g.is_tree() and g.max_degree() >= 4
        ]
        assert {name for name, _ in trees} == {
            "K1_4", "K1_5", "S1112", "K1_6", "broom43", "DS23"
        }
        shared = 0
        for name, g in trees:
            for t in range(1, g.max_degree() + 1):
                J = partial_cover_ideal(g, t)
                chain = associated_primes_of_powers(J, 4)
                assert chain == [power_primes(J, s) for s in range(1, 5)], (name, t)
                for s, (now, later) in enumerate(zip(chain, chain[1:]), start=1):
                    held = {p: p for p in later}
                    for p in filter(held.__contains__, now):
                        assert held[p] is p, (name, t, s, p)
                        shared += 1
        assert shared

    def test_stars_with_classes_partly_in_a_support(self):
        # Each star K_{1,n} has its leaves as one class; the walk's gate
        # admits s = 3 up to n = 8.  Below t = n some prime holds the
        # centre and only some of the leaves.
        for n in range(4, 9):
            ideals = [star_generators(n, t) for t in range(1, n + 1)]
            assert all(monomials._walk_box(J, 3) is not None for J in ideals), n
            partly = [_masks_agree(J, 3)[1] for J in ideals]
            assert partly == [t < n for t in range(1, n + 1)], n

    @settings(max_examples=40, deadline=None)
    @example((_CHAIN_EXAMPLES[0], []), 3)
    @example((_CHAIN_EXAMPLES[1], [(0, 1)]), 3)
    @given(
        st.one_of(
            symmetric_ideals_strategy(),
            ideals_strategy().map(lambda I: (I, [])),
        ),
        st.integers(1, 3),
    )
    def test_non_squarefree_ideals(self, case, s_max):
        _masks_agree(case[0], s_max, reference=2)


@st.composite
def membership_cases(draw):
    """An ideal, unit ideal included, with up to two variables in no
    generator; a power s <= 3; and points up to 10 in each entry, past
    s * m_i where the query box clamps them.  Half the ideals are
    symmetric, so that classes hold generators with entries above 1."""
    I = draw(
        st.one_of(
            ideals_strategy(allow_trivial=True),
            symmetric_ideals_strategy().map(operator.itemgetter(0)),
        )
    )
    absent = draw(st.sets(st.integers(0, NVARS - 1), max_size=2))
    gens = [tuple(0 if i in absent else x for i, x in enumerate(g)) for g in I.gens]
    points = st.tuples(*[st.integers(0, 10)] * NVARS)
    return (
        minimalize(I.ambient, gens),
        draw(st.integers(0, 3)),
        draw(st.lists(points, min_size=1, max_size=6)),
    )


@settings(max_examples=150, deadline=None)
@example((minimalize(X4, [(3, 0, 0, 0), (0, 1, 0, 0)]), 2, [(1, 0, 0, 0), (0, 1, 0, 0)]))
@example((minimalize(X4, [(2, 1, 0, 0), (0, 2, 0, 3)]), 1, [(9, 9, 9, 9), (2, 0, 0, 0)]))
@example((minimalize(X4, [(1, 1, 1, 0)]), 0, [(0, 0, 0, 0), (5, 0, 0, 7)]))
# The packed fields must hold every generator entry, not only the points':
# fields sized for (1, 0, 0) alone read c^3 as a divisor of it.
@example(
    (
        minimalize(("a", "b", "c"), [(2, 0, 0), (0, 1, 0), (0, 0, 3)]),
        1,
        [(0, 0, 0), (1, 0, 0)],
    )
)
# A canonical point can exceed the points' column maxima: (0, 5) is read as
# (5, 0), which only a generator on a divides.
@example((minimalize(("a", "b"), [(1, 0), (0, 1)]), 1, [(0, 5)]))
@example((minimalize(("a", "b"), [(2, 0), (0, 2)]), 2, [(0, 4)]))
@given(membership_cases())
def test_power_membership_matches_the_built_power(case):
    I, s, points = case
    power = ideal_power(I, s)
    assert power_contains(I, s, points) == [contains(power, x) for x in points]


def _visits(I, s, points):
    """The answers of power_contains(I, s, points) and every vector its
    search visited, unpacked: each frame's vector passes through
    `monomials._ties`, with fields as wide as `power_contains` lays
    them out."""
    bound = max(itertools.chain(*points, *I.gens), default=0)
    width, _ = monomials._layout(bound, I.nvars)
    low = (1 << (width - 1)) - 1
    with mock.patch.object(monomials, "_ties", wraps=monomials._ties) as spy:
        answers = power_contains(I, s, points)
    fields = range(0, I.nvars * width, width)
    return answers, [
        tuple(call.args[0] >> f & low for f in fields) for call in spy.call_args_list
    ]


def _canonical_visits(I, s, points):
    """Assert that every vector the membership search visits is its own
    canonical form, and return how many it visited beyond the points.
    The tie rule and the sort of generators with an entry above 1 keep
    them so; without either the answers stay right and only the memo
    holds one orbit many times, so no answer test sees the difference."""
    answers, visited = _visits(I, s, points)
    classes = _classes(I)
    for v in visited:
        assert monomials._canonical(v, classes) == v, (I, s, v)
    starts = {monomials._canonical(x, classes) for x in points}
    assert answers == power_contains(I, s, points)
    return len(set(visited) - starts)


class TestCanonicalVisits:
    def test_star_witness_cells(self):
        # Every witness cell with n <= 8 (127 cells), on T and x_i T.
        cells = deeper = 0
        for n in range(2, 9):
            for t in range(2, n + 1):
                for s in range(1, 7):
                    if not max_ideal_in_ass_star(n, t, s):
                        continue
                    J, T = star_generators(n, t), build_star_witness(n, t, s).T
                    probes = [T] + [
                        T[:i] + (T[i] + 1,) + T[i + 1 :] for i in range(len(T))
                    ]
                    cells += 1
                    deeper += _canonical_visits(J, s, probes) > 0
        # Only the 7 cells at s = 1 (t = n) visit no vector past T.
        assert (cells, deeper) == (127, 120)

    @settings(max_examples=100, deadline=None)
    # a^2 divides (3, 2) and leaves (1, 2): only the sort of a generator
    # with an entry above 1 makes that child (2, 1).
    @example(
        (minimalize(X4, [(2, 0, 0, 0), (0, 2, 0, 0)]), [(0, 1), (2, 3)]),
        2,
        [(3, 2, 0, 0)],
    )
    @given(
        symmetric_ideals_strategy(),
        st.integers(1, 3),
        st.lists(st.tuples(*[st.integers(0, 6)] * NVARS), min_size=1, max_size=4),
    )
    def test_symmetric_ideals(self, case, s, points):
        _canonical_visits(case[0], s, points)


# The star witness cells whose probes span more points than this are
# checked against the definition: building their powers would be slow.
LARGE_PROBE_BOX = 1 << 18


class TestMembershipReference:
    # Large powers against the definition (`reference_power_contains`),
    # where building the power to check against would be slow.

    def test_star_witness_cells_past_the_limit(self):
        # The cells whose probes T and x_i * T span a box of more than
        # LARGE_PROBE_BOX points, clamped to that of J^s: T lies outside
        # J^s and every x_i * T inside it.
        cells = []
        for n in range(2, min(8, MAX_VARIABLES - 1) + 1):
            for t in range(2, n + 1):
                for s in range(1, MAX_POWER + 1):
                    if not max_ideal_in_ass_star(n, t, s):
                        continue
                    J, T = star_generators(n, t), build_star_witness(n, t, s).T
                    probes = [T] + [
                        T[:i] + (T[i] + 1,) + T[i + 1 :] for i in range(len(T))
                    ]
                    # The box of the probes, clamped to that of J^s.
                    radix = [
                        1 + min(s * max(column), max(entries))
                        for column, entries in zip(zip(*J.gens), zip(*probes))
                    ]
                    if math.prod(radix) <= LARGE_PROBE_BOX:
                        continue
                    want = [reference_power_contains(J, s, x) for x in probes]
                    assert power_contains(J, s, probes) == want, (n, t, s)
                    assert want == [False] + [True] * (n + 1), (n, t, s)
                    cells.append((n, t, s))
        assert cells == [(7, 2, 6), (8, 3, 4), (8, 3, 5), (8, 3, 6)]

    def test_paths_and_cycles(self):
        rng = random.Random(1)
        inside = outside = 0
        for g in (path_graph(9), path_graph(10), cycle_graph(9), cycle_graph(10)):
            J = partial_cover_ideal(g, 2)
            for s in range(1, 5):
                points = [
                    tuple(rng.randint(0, s) for _ in range(J.nvars))
                    for _ in range(20)
                ]
                want = [reference_power_contains(J, s, x) for x in points]
                assert power_contains(J, s, points) == want, (g.vertices, s)
                inside += sum(want)
                outside += len(want) - sum(want)
        assert (inside, outside) == (146, 174)


def _package_nodes():
    """(module, innermost enclosing function or None, node) for every
    syntax node of every covertool module."""
    for path in sorted(Path(covertool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):  # outer functions first
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        for node in ast.walk(tree):
            yield path.stem, owner.get(node), node


class TestStaircaseGate:
    def test_only_the_gate_reads_the_limit(self):
        # `_box` is the one reader of the limit, so a new limit or cost
        # estimate changes it alone.
        uses = []
        for module, owner, node in _package_nodes():
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, ast.alias):
                name, kind = node.name, "import"
            else:
                kind = type(getattr(node, "ctx", None)).__name__
            if name == "_STAIRCASE_MAX_BITS":
                uses.append((module, owner, kind))
        assert sorted(uses, key=str) == [
            ("monomials", "_box", "Load"),
            ("monomials", None, "Store"),
        ]

    def test_each_gate_has_its_callers(self):
        # `_walk`'s only gate is `_walk_box`, which holds no limit of its
        # own, and `_box` answers `_walk_box`, `_decompose` and
        # `_squarefree_dual` alone: a gate of the walk's own is a change
        # to `_walk_box`'s body.
        calls, walk = [], set()
        gates = {"_walk_box", "_box", "Box", "_STAIRCASE_MAX_BITS", "prod", "_radices"}
        for module, owner, node in _package_nodes():
            name = getattr(node, "id", getattr(node, "attr", None))
            if owner == "_walk" and name in gates:
                walk.add(name)
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("_box", "_walk_box"):
                    calls.append((module, owner, name))
        assert walk == {"_walk_box"}
        assert sorted(calls) == [
            ("monomials", "_decompose", "_box"),
            ("monomials", "_squarefree_dual", "_box"),
            ("monomials", "_walk", "_walk_box"),
            ("monomials", "_walk_box", "_box"),
        ]

    def test_only_decompose_calls_a_kernel(self):
        # `_decompose` is the one dispatcher between the box kernel and
        # the incremental loop, so a new kernel or a cost estimate is one
        # module plus one branch there.  Past the gate, `monomials` hands
        # a box to staircase functions and calls none of its primitives.
        primitives = {"upward", "offset", "corner_tests", "Shifts", "corners"}
        calls, outside = [], []
        for module, owner, node in _package_nodes():
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("_staircase", "_components"):
                    calls.append((module, owner, name))
                if name in primitives and module != "staircase":
                    outside.append((module, owner, name))
        assert sorted(calls) == [
            ("monomials", "_decompose", "_components"),
            ("monomials", "_decompose", "_staircase"),
        ]
        assert outside == []

    def test_pairs_answer_as_the_staircase(self, monkeypatch):
        # With the gates shut, the chain and single powers take the pairs
        # on ideals the staircase would read, the square-free duals take
        # the decomposition, and every entry point answers the same;
        # membership asks no gate at any s, 0 included.
        rng = random.Random(1)
        cells = []
        for name, g in graph_corpus():
            for t in range(1, g.max_degree() + 1):
                J = partial_cover_ideal(g, t)
                points = [
                    tuple(rng.randint(0, s) for _ in range(J.nvars))
                    for s in (1, 2, 3)
                    for _ in range(10)
                ]
                cells.append(((name, t), J, points))

        def answers(J, points):
            return (
                associated_primes_of_powers(J, 3),
                [power_primes(J, s) for s in (1, 2, 3)],
                [power_contains(J, s, points) for s in (0, 1, 2, 3)],
            )

        def duals():
            # The square-free duals: J_t, the dual of J_t and of its
            # generalized edge ideal, the hypergraph cover ideals, and
            # the unit J_t past the largest degree and the duals of the
            # zero and unit ideals.
            found = [alexander_dual(zero_ideal(X4)), alexander_dual(unit_ideal(X4))]
            for name, g in graph_corpus():
                for t in range(1, g.max_degree() + 1):
                    J = partial_cover_ideal(g, t)
                    edges = generalized_edge_ideal(g, t)
                    found.append((J, alexander_dual(J), alexander_dual(edges)))
                found.append(partial_cover_ideal(g, g.max_degree() + 1))
            return found + [hypergraph_cover_ideal(h) for _, h in hypergraph_corpus()]

        expected = [answers(J, points) for _, J, points in cells]
        expected_duals = duals()
        walk, gate = [], []
        monkeypatch.setattr(monomials, "_walk_box", lambda I, s: walk.append(s))
        monkeypatch.setattr(monomials, "_box", lambda radix: gate.append(radix))
        for (key, J, points), want in zip(cells, expected):
            assert answers(J, points) == want, key
        assert sorted(set(walk)) == [1, 2, 3]
        assert any(r != [2] * len(r) for r in gate)
        gate.clear()
        assert duals() == expected_duals
        assert [2, 2] in gate


@given(ideals_strategy())
def test_power_two_is_self_product(I):
    squares = products(I, I)
    assert minimalize(I.ambient, squares) == reference_minimalize(I.ambient, squares)
    assert ideal_power(I, 2) == reference_product(I, I)
    assert ideal_power(I, 3) == reference_power(I, 3)


@st.composite
def squarefree_with_unused(draw):
    """A square-free ideal on 1 to 8 variables, zero and unit ideals
    included, with a drawn set of variables in no generator."""
    nvars = draw(st.integers(1, 8))
    variables = st.integers(0, nvars - 1)
    unused = draw(st.sets(variables))
    supports = draw(st.lists(st.sets(variables), max_size=6))
    ambient = tuple(f"x{i}" for i in range(1, nvars + 1))
    return minimalize(ambient, [support_vector(s - unused, nvars) for s in supports])


@given(squarefree_with_unused())
@example(minimalize(("a", "b", "c"), [(1, 0, 1), (1, 1, 0)]))
@example(zero_ideal(("a", "b")))
@example(unit_ideal(("a",)))
def test_duality_involution_on_squarefree(I):
    assert alexander_dual(I) == reference_dual(I)
    assert alexander_dual(alexander_dual(I)) == I
    # With the gates shut the dual goes through the decomposition, on
    # the variables in some generator only, and is spread back over
    # the ambient.
    with pytest.MonkeyPatch.context() as monkeypatch:
        _shut_gates(monkeypatch)
        assert alexander_dual(I) == reference_dual(I)


# ---------------------------------------------------------------------------
# Witness search as an independent check on the decomposition oracle.
# ---------------------------------------------------------------------------


def _all_primes(nvars):
    for size in range(1, nvars + 1):
        for subset in itertools.combinations(range(nvars), size):
            yield MonomialPrime(frozenset(subset))


def _box_sweep_supports(I):
    """One pass over the witness box, collecting every prime that occurs
    as colon(I, T).  Equivalent to running witness_search per prime but
    without re-walking the box once per candidate."""
    count = len(I.gens)
    bounds = [
        max(g[i] for g in I.gens) * count
        for i in range(len(I.ambient))
    ]
    found = set()
    for T in itertools.product(*(range(b + 1) for b in bounds)):
        if contains(I, T):
            continue
        Q = colon(I, T)
        if all(sum(g) == 1 for g in Q.gens):
            found.add(frozenset(support(g) for g in Q.gens))
    return {frozenset().union(*supp) for supp in found}


def _squarefree_check_corpus():
    from covertool.covers import partial_cover_ideal
    from covertool.graphs import path_graph, star_graph

    return [
        partial_cover_ideal(star_graph(3), 1),
        partial_cover_ideal(path_graph(4), 1),
        partial_cover_ideal(path_graph(4), 2),
        partial_cover_ideal(star_graph(3), 2),
        partial_cover_ideal(star_graph(4), 2),
        partial_cover_ideal(path_graph(5), 2),
        partial_cover_ideal(path_graph(6), 1),
        partial_cover_ideal(star_graph(5), 2),
    ]


class TestWitnessCompleteness:
    def test_per_prime_on_four_variables(self):
        for I in _squarefree_check_corpus():
            if len(I.ambient) > 4:
                continue
            ass = {p.support for p in associated_primes(I)}
            for P in _all_primes(len(I.ambient)):
                T = witness_search(I, P)
                assert (T is not None) == (P.support in ass), (I, P)
                if T is not None:
                    assert colon(I, T) == P.as_ideal(I.ambient)

    def test_box_sweep_on_five_and_six_variables(self):
        for I in _squarefree_check_corpus():
            if len(I.ambient) <= 4:
                continue
            ass = {p.support for p in associated_primes(I)}
            assert _box_sweep_supports(I) == ass, I

    def test_squarefree_ass_is_minimal_covers(self):
        for I in _squarefree_check_corpus():
            ass = {p.support for p in associated_primes(I)}
            gen_supports = [set(support(g)) for g in I.gens]
            for supp in ass:
                assert all(supp & s for s in gen_supports)
            for a, b in itertools.permutations(ass, 2):
                assert not a < b
