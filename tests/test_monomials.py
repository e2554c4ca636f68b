"""Exact-arithmetic tests for the monomial ideal engine.

The fixed expectations in this file were worked out by hand (divisor
lists, intersections and colons on paper) before the implementation ran,
so they are independent of the code under test.
"""

import itertools

import pytest
from decompositions import reference_decomposition
from hypothesis import given, settings
from hypothesis import strategies as st
from transversals import edge_ideal, reference_dual

from covertool.catalog import graph_corpus, hypergraph_corpus
from covertool.covers import generalized_edge_ideal, partial_cover_ideal
from covertool.hypercovers import hypergraph_cover_ideal
from covertool.monomials import (
    IrreducibleComponent,
    Monomial,
    MonomialPrime,
    alexander_dual,
    associated_primes,
    colon,
    contains,
    ideal_contains_ideal,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_str,
    irreducible_decomposition,
    minimalize,
    monomial_from_str,
    monomial_str,
    prime_str,
    sorted_primes,
    unit_ideal,
    witness_search,
    zero_ideal,
)

X4 = ("x1", "x2", "x3", "x4")
ZX3 = ("z", "x1", "x2", "x3")


def mono(ambient, text):
    return monomial_from_str(text, ambient)


def ideal(ambient, *gens):
    return minimalize(ambient, [mono(ambient, g) for g in gens])


class TestMonomial:
    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_divides_and_multiply(self):
        a = mono(X4, "x1*x2")
        b = mono(X4, "x1^2*x2*x4")
        assert a.divides(b)
        assert not b.divides(a)
        assert a * a == mono(X4, "x1^2*x2^2")

    def test_lcm_and_colon(self):
        a = mono(X4, "x1^2*x3")
        b = mono(X4, "x1*x3^2*x4")
        assert a.lcm(b) == mono(X4, "x1^2*x3^2*x4")
        assert a.colon(b) == mono(X4, "x1")
        assert b.colon(a) == mono(X4, "x3*x4")

    def test_one_support_degree(self):
        one = Monomial.one(4)
        assert one.is_one and one.degree == 0 and one.support == ()
        m = mono(X4, "x2*x4^3")
        assert m.support == (1, 3)
        assert m.degree == 4
        assert not m.is_squarefree

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            Monomial((1, 0)) * Monomial((1, 0, 0))
        with pytest.raises(ValueError):
            Monomial((1, 0)).lcm(Monomial((1,)))

    def test_string_round_trip(self):
        for text in ("1", "x1", "x2^3", "x1*x3^2*x4"):
            assert monomial_str(mono(X4, text), X4) == text
        with pytest.raises(ValueError):
            monomial_from_str("y1", X4)


class TestMinimalize:
    def test_drops_multiples_and_sorts(self):
        I = ideal(X4, "x2", "x3", "x1*x4", "x2*x3", "x2^2*x4")
        assert ideal_str(I) == "[x2, x3, x1*x4]"

    def test_canonical_order_is_degree_then_earliest_variable(self):
        I = ideal(ZX3, "x2*x3", "z", "x1*x3", "x1*x2")
        assert ideal_str(I) == "[z, x1*x2, x1*x3, x2*x3]"

    def test_idempotent(self):
        I = ideal(X4, "x1*x2", "x3")
        assert minimalize(I.ambient, list(I.gens)) == I

    def test_wrong_variable_count_rejected(self):
        with pytest.raises(ValueError):
            minimalize(X4, [Monomial((1, 0))])

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
        assert ideal_product(I, I) == expected
        assert ideal_power(I, 2) == expected

    def test_power_edge_cases(self):
        I = ideal(X4, "x1*x2")
        assert ideal_power(I, 0) == unit_ideal(X4)
        assert ideal_power(I, 1) == I
        assert ideal_power(I, 3) == ideal(X4, "x1^3*x2^3")
        assert ideal_power(zero_ideal(X4), 2).is_zero
        with pytest.raises(ValueError):
            ideal_power(I, -1)

    def test_intersection_of_neighbour_primes(self):
        left = ideal(X4, "x1", "x2", "x3")
        right = ideal(X4, "x2", "x3", "x4")
        assert ideal_intersection(left, right) == ideal(X4, "x2", "x3", "x1*x4")

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
        assert ideal_contains_ideal(I, ideal_power(I, 2))
        assert not ideal_contains_ideal(ideal_power(I, 2), I)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ideal_product(ideal(X4, "x1"), ideal(ZX3, "z"))
        with pytest.raises(ValueError):
            colon(ideal(X4, "x1"), Monomial((1, 0)))


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
            acc = part if acc is None else ideal_intersection(acc, part)
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

    def test_rejects_unit_and_zero(self):
        with pytest.raises(ValueError):
            irreducible_decomposition(unit_ideal(X4))
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
        dual_supports = {frozenset(g.support) for g in dual.gens}
        ass_supports = {p.support for p in associated_primes(I)}
        assert dual_supports == ass_supports

    def test_matches_transversal_reference_on_corpus(self):
        for name, g in graph_corpus():
            for t in range(1, g.max_degree() + 1):
                cover = partial_cover_ideal(g, t)
                edges = generalized_edge_ideal(g, t)
                assert alexander_dual(cover) == reference_dual(cover), (name, t)
                assert alexander_dual(edges) == reference_dual(edges), (name, t)


# Randomized law checks.  Everything is tiny (up to 4 variables, degree
# 3) so the laws are exercised across many shapes rather than deeply.

def exponents(nvars):
    return st.tuples(*([st.integers(0, 3)] * nvars))


@st.composite
def ideals_strategy(draw, nvars=3, allow_trivial=False):
    gens = draw(st.lists(exponents(nvars), min_size=1, max_size=4))
    ambient = tuple(f"x{i}" for i in range(1, nvars + 1))
    result = minimalize(ambient, [Monomial(e) for e in gens])
    if not allow_trivial and result.is_unit:
        result = minimalize(
            ambient, [Monomial(tuple(e + 1 for e in g)) for g in gens[:1]]
        )
    return result


@given(ideals_strategy(), exponents(3), exponents(3))
def test_colon_membership_law(I, t_exps, m_exps):
    t, m = Monomial(t_exps), Monomial(m_exps)
    assert contains(colon(I, t), m) == contains(I, m * t)


@given(ideals_strategy(), ideals_strategy(), exponents(3))
def test_intersection_membership_law(I, J, m_exps):
    m = Monomial(m_exps)
    both = contains(I, m) and contains(J, m)
    assert contains(ideal_intersection(I, J), m) == both


@given(ideals_strategy(), ideals_strategy())
def test_product_inside_intersection(I, J):
    product = ideal_product(I, J)
    meet = ideal_intersection(I, J)
    assert ideal_contains_ideal(meet, product)


@settings(max_examples=60)
@given(ideals_strategy())
def test_decomposition_round_trip(I):
    if I.is_zero or I.is_unit:
        return
    assert irreducible_decomposition(I) == reference_decomposition(I)
    acc = None
    for comp in irreducible_decomposition(I):
        part = comp.as_ideal(I.ambient)
        assert ideal_contains_ideal(part, I)
        acc = part if acc is None else ideal_intersection(acc, part)
    assert acc == I


@given(ideals_strategy())
def test_power_two_is_self_product(I):
    assert ideal_power(I, 2) == ideal_product(I, I)


@given(st.lists(st.tuples(*([st.booleans()] * 4)), min_size=1, max_size=4))
def test_duality_involution_on_squarefree(supports):
    ambient = ("x1", "x2", "x3", "x4")
    gens = [Monomial(tuple(int(b) for b in row)) for row in supports]
    I = minimalize(ambient, gens)
    assert alexander_dual(I) == reference_dual(I)
    assert alexander_dual(alexander_dual(I)) == I


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
        max(g.exps[i] for g in I.gens) * count
        for i in range(len(I.ambient))
    ]
    found = set()
    for exps in itertools.product(*(range(b + 1) for b in bounds)):
        T = Monomial(exps)
        if contains(I, T):
            continue
        Q = colon(I, T)
        if all(g.degree == 1 for g in Q.gens):
            found.add(frozenset(g.support for g in Q.gens))
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
            gen_supports = [set(g.support) for g in I.gens]
            for supp in ass:
                assert all(supp & s for s in gen_supports)
            for a, b in itertools.permutations(ass, 2):
                assert not a < b
