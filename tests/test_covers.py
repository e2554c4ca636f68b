import itertools

import pytest
from covers_reference import reference_cover_ideal
from hypothesis import given
from hypothesis import strategies as st

from covertool.catalog import graph_corpus
from covertool.covers import (
    classify_tree_generators,
    enumerate_minimal_partial_covers,
    generalized_edge_ideal,
    is_partial_cover,
    partial_cover_ideal,
    star_generators,
)
from covertool.graphs import Graph, cycle_graph, path_graph, spider, star_graph
from covertool.monomials import (
    alexander_dual,
    ideal_contains_ideal,
    ideal_str,
    minimalize,
    support_vector,
)


def cover_monomials(g, covers):
    return [support_vector([g.index(v) for v in w], g.n) for w in covers]


class TestIsPartialCover:
    def test_path_interior_vertex(self):
        assert is_partial_cover(path_graph(4), 2, {"x2"})

    def test_star_all_leaves(self):
        assert is_partial_cover(star_graph(3), 1, {"x1", "x2", "x3"})

    def test_star_empty_fails(self):
        assert not is_partial_cover(star_graph(3), 2, set())

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            is_partial_cover(path_graph(3), 1, {"y9"})

    def test_t_validated(self):
        with pytest.raises(ValueError):
            is_partial_cover(path_graph(3), 0, set())


class TestEnumerateCovers:
    def test_path4_t2(self):
        covers = enumerate_minimal_partial_covers(path_graph(4), 2)
        assert covers == [("x2",), ("x3",), ("x1", "x4")]

    def test_star_t1(self):
        covers = enumerate_minimal_partial_covers(star_graph(3), 1)
        assert covers == [("z",), ("x1", "x2", "x3")]

    def test_star4_t2(self):
        covers = enumerate_minimal_partial_covers(star_graph(4), 2)
        assert covers[0] == ("z",)
        triples = [w for w in covers if len(w) == 3]
        assert len(triples) == 4
        assert len(covers) == 5

    def test_results_are_minimal_covers(self):
        g = spider(1, 2, 2)
        for t in (1, 2, 3):
            for w in enumerate_minimal_partial_covers(g, t):
                assert is_partial_cover(g, t, w)
                for v in w:
                    smaller = set(w) - {v}
                    assert not is_partial_cover(g, t, smaller)


class TestPartialCoverIdeal:
    def test_path4_t2(self):
        I = partial_cover_ideal(path_graph(4), 2)
        assert ideal_str(I) == "[x2, x3, x1*x4]"

    def test_star_t1(self):
        I = partial_cover_ideal(star_graph(3), 1)
        assert ideal_str(I) == "[z, x1*x2*x3]"

    def test_single_vertex_unit(self):
        I = partial_cover_ideal(Graph.build(("a",), []), 1)
        assert I.is_unit

    def test_high_t_unit(self):
        assert partial_cover_ideal(path_graph(4), 3).is_unit

    def test_generators_square_free(self):
        for _, g in graph_corpus():
            for t in range(1, g.max_degree() + 1):
                assert partial_cover_ideal(g, t).is_squarefree

    def test_equals_cover_construction_corpus_wide(self):
        for name, g in graph_corpus():
            for t in range(1, g.max_degree() + 1):
                covers = enumerate_minimal_partial_covers(g, t)
                built = minimalize(g.vertices, cover_monomials(g, covers))
                assert built == partial_cover_ideal(g, t), (name, t)

    def test_matches_intersection_reference(self):
        # The dual of the star products against the prime-by-prime
        # intersection of the definition; t = max degree + 1 checks the
        # unit ideal on both sides.
        stars = [(f"K_1,{n}", star_graph(n)) for n in range(1, 9)]
        for name, g in list(graph_corpus()) + stars:
            for t in range(1, g.max_degree() + 2):
                assert partial_cover_ideal(g, t) == reference_cover_ideal(
                    g, t
                ), (name, t)

    def test_monotone_in_t(self):
        for _, g in graph_corpus():
            delta = g.max_degree()
            for t in range(1, delta):
                lower = partial_cover_ideal(g, t)
                higher = partial_cover_ideal(g, t + 1)
                assert ideal_contains_ideal(higher, lower)


class TestStarGenerators:
    def test_n3_t2(self):
        assert ideal_str(star_generators(3, 2)) == "[z, x1*x2, x1*x3, x2*x3]"

    def test_n4_t1(self):
        assert ideal_str(star_generators(4, 1)) == "[z, x1*x2*x3*x4]"

    def test_n2_t2(self):
        assert ideal_str(star_generators(2, 2)) == "[z, x1, x2]"

    def test_matches_graph_construction(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                assert star_generators(n, t) == partial_cover_ideal(
                    star_graph(n), t
                )

    def test_generator_count(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                expected = 1 + _binom(n, n - t + 1)
                assert len(star_generators(n, t).gens) == expected

    def test_t_above_n_rejected(self):
        with pytest.raises(ValueError):
            star_generators(3, 4)


def _binom(n, k):
    return len(list(itertools.combinations(range(n), k)))


class TestGeneralizedEdgeIdeal:
    def test_t1_is_edge_ideal(self):
        for _, g in graph_corpus():
            expected = minimalize(
                g.vertices,
                [support_vector([g.index(u) for u in e], g.n) for e in g.edges],
            )
            assert generalized_edge_ideal(g, 1) == expected

    def test_path4_two_path_ideal(self):
        I = generalized_edge_ideal(path_graph(4), 2)
        assert ideal_str(I) == "[x1*x2*x3, x2*x3*x4]"

    def test_direct_neighbourhood_formula(self):
        # x times each t-subset of N(x), over all x, minimalized, is the
        # dual of J_t read off its decomposition.
        for name, g in graph_corpus():
            for t in range(1, g.max_degree() + 1):
                gens = []
                for x in g.vertices:
                    for sub in itertools.combinations(g.neighbors(x), t):
                        support = [g.index(x)] + [g.index(y) for y in sub]
                        gens.append(support_vector(support, g.n))
                formula = minimalize(g.vertices, gens)
                dual = alexander_dual(partial_cover_ideal(g, t))
                assert dual == formula, (name, t)
                assert generalized_edge_ideal(g, t) == formula, (name, t)

    def test_involution(self):
        g = cycle_graph(5)
        I = partial_cover_ideal(g, 2)
        assert alexander_dual(generalized_edge_ideal(g, 2)) == I

    def test_unit_cover_ideal_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            generalized_edge_ideal(path_graph(4), 3)


class TestClassifyTreeGenerators:
    def test_path4_t2(self):
        from covertool.monomials import monomial_str

        g = path_graph(4)
        report = classify_tree_generators(g, 2)
        assert report.special_vertex == "x2"
        assert report.frame == ("x2", "x1", "x3")
        kinds = {
            monomial_str(e.generator, g.vertices): e.kind
            for e in report.entries
        }
        assert kinds == {"x2": "ii", "x3": "i", "x1*x4": "i"}

    def test_star3_t2(self):
        report = classify_tree_generators(star_graph(3), 2)
        assert report.special_vertex == "z"
        by_kind = {}
        for e in report.entries:
            by_kind.setdefault(e.kind, []).append(e)
        assert len(by_kind["ii"]) == 1
        assert len(by_kind["i"]) == 3

    def test_single_edge_t1(self):
        report = classify_tree_generators(path_graph(2), 1)
        kinds = sorted(e.kind for e in report.entries)
        assert kinds == ["i", "ii"]

    def test_every_corpus_tree_classifies(self):
        from covertool.catalog import extended_trees
        from covertool.graphs import find_special_vertex

        for name, g in extended_trees():
            d = g.degree(find_special_vertex(g).vertex)
            for t in range(1, min(d, g.max_degree()) + 1):
                report = classify_tree_generators(g, t)
                assert len(report.entries) == len(
                    partial_cover_ideal(g, t).gens
                ), (name, t)

    def test_frame_too_small_rejected(self):
        # broom(3, 2): the special vertex has degree 2 but the graph
        # supports t = 3, where the frame says nothing.
        from covertool.graphs import broom

        with pytest.raises(ValueError, match="deg"):
            classify_tree_generators(broom(3, 2), 3)

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="trees"):
            classify_tree_generators(cycle_graph(4), 1)


@given(st.integers(0, 2**5 - 1), st.integers(1, 5))
def test_cover_check_agrees_with_ideal_membership(mask, t):
    # W is a partial t-cover exactly when x_W lies in J_t.
    from covertool.monomials import contains

    g = spider(1, 1, 2)
    members = [v for i, v in enumerate(g.vertices) if mask & (1 << i)]
    claim = is_partial_cover(g, t, members)
    x_w = support_vector([g.index(v) for v in members], g.n)
    assert claim == contains(partial_cover_ideal(g, t), x_w)
