import math

import pytest
from minimalizers import support_vector
from transversals import edge_ideal, reference_dual

from covertool import monomials
from covertool.associated import (
    astab_tree,
    max_ideal_in_ass_star,
    predict_ass_star,
    predict_ass_tree,
    predict_ass_tree_powers,
    tail_contradicts_astab,
)
from covertool.catalog import hypergraph_corpus
from covertool.cli import GAP_FAMILY_CAP
from covertool.covers import partial_cover_ideal, star_generators
from covertool.graphs import Hypergraph, path_graph
from covertool.hypercovers import (
    build_gap_family,
    chromatic_number,
    find_coloring,
    hypergraph_cover_ideal,
    is_proper_coloring,
    verify_gap,
)
from covertool.monomials import alexander_dual, ideal_str, minimalize
from covertool.record import replace


class TestCoverIdeal:
    def test_single_edge(self):
        h = Hypergraph.build(("a", "b"), [("a", "b")])
        assert ideal_str(hypergraph_cover_ideal(h)) == "[a, b]"

    def test_single_triple(self):
        h = Hypergraph.build(("a", "b", "c"), [("a", "b", "c")])
        assert ideal_str(hypergraph_cover_ideal(h)) == "[a, b, c]"

    def test_h1_matches_star_form(self):
        I = hypergraph_cover_ideal(build_gap_family(1))
        assert ideal_str(I) == "[z, x1*x2, x1*x3, x2*x3]"
        assert I == star_generators(3, 2)

    def test_gap_family_equals_star_form(self):
        for m in (1, 2, 3):
            assert hypergraph_cover_ideal(build_gap_family(m)) == star_generators(
                m + 2, 2
            )

    def test_dual_is_edge_ideal(self):
        # Covers are transversals, so the Alexander dual must recover
        # the generators spanned by the edges themselves.
        for name, h in hypergraph_corpus():
            I = hypergraph_cover_ideal(h)
            edges = minimalize(
                h.vertices,
                [support_vector([h.index(v) for v in e], h.n) for e in h.edges],
            )
            assert alexander_dual(I) == edges, name

    def test_matches_transversal_reference(self):
        edgeless = Hypergraph.build(("a", "b"), [])
        for name, h in hypergraph_corpus() + [("edgeless", edgeless)]:
            expected = reference_dual(edge_ideal(h))
            assert hypergraph_cover_ideal(h) == expected, name
        assert hypergraph_cover_ideal(edgeless).is_unit


class TestColoring:
    def test_proper_and_improper(self):
        h = build_gap_family(1)
        good = {"z": 1, "x1": 2, "x2": 2, "x3": 2}
        bad = {"z": 2, "x1": 2, "x2": 2, "x3": 1}
        assert is_proper_coloring(h, good)
        assert not is_proper_coloring(h, bad)

    def test_missing_vertex_rejected(self):
        h = build_gap_family(1)
        with pytest.raises(ValueError, match="misses"):
            is_proper_coloring(h, {"z": 1})

    def test_find_coloring_roundtrip(self):
        for name, h in hypergraph_corpus():
            k = chromatic_number(h)
            found = find_coloring(h, k)
            assert found is not None and is_proper_coloring(h, found), name
            if k > 1:
                assert find_coloring(h, k - 1) is None, name

    def test_bad_color_count(self):
        with pytest.raises(ValueError, match="color"):
            find_coloring(build_gap_family(1), 0)


class TestChromaticNumber:
    def test_gap_family_is_two(self):
        for m in (1, 2, 3):
            assert chromatic_number(build_gap_family(m)) == 2

    def test_triangle_is_three(self):
        h = Hypergraph.build(
            ("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")]
        )
        assert chromatic_number(h) == 3

    def test_no_edges_is_one(self):
        assert chromatic_number(Hypergraph.build(("a",), [])) == 1
        assert chromatic_number(Hypergraph.build(("a", "b", "c"), [])) == 1


class TestGapFamily:
    def test_shapes(self):
        h1 = build_gap_family(1)
        assert h1.n == 4 and len(h1.edges) == 3
        h2 = build_gap_family(2)
        assert h2.n == 5 and len(h2.edges) == 6

    def test_edge_count_formula(self):
        for m in (1, 2, 3, 4):
            assert len(build_gap_family(m).edges) == math.comb(m + 2, 2)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            build_gap_family(0)


class TestVerifyGap:
    def test_m1_is_equality(self):
        report = verify_gap(1)
        assert (report.chi, report.astab, report.gap_bound) == (2, 2, 2)
        assert report.gap_is_equality
        assert report.all_checks_pass

    def test_m2_and_m3(self):
        for m, astab in ((2, 3), (3, 4)):
            report = verify_gap(m)
            assert report.chi == 2
            assert report.astab == astab == report.oracle_astab
            assert report.gap_bound == m + 1
            assert report.all_checks_pass, m

    def test_past_the_cli_cap(self):
        # J(H_m) = J_2(K_{1,m+2}): astab = m + 1, and the oracle walks
        # s = 1..m+2, whose box of (m + 3)^(m + 3) points lies past the
        # staircase limit from m = 4 on.
        for m in range(4, 9):
            assert (m + 3) ** (m + 3) > monomials._STAIRCASE_MAX_BITS
            report = verify_gap(m)
            assert not report.refuted, m
            assert report.oracle_astab == report.astab == m + 1, m
            assert report.all_checks_pass, m

    def test_cap(self):
        # The desk-scale cap on m is a CLI limit; the library runs any m.
        report = verify_gap(GAP_FAMILY_CAP + 1, s_max=1)
        assert report.m == GAP_FAMILY_CAP + 1 and report.gap_holds

    def test_force_with_short_sweep(self):
        # Past the CLI cap but with s_max small: the certified gap
        # still holds, while the oracle tail cannot be pinned down yet.
        report = verify_gap(4, s_max=2)
        assert report.astab == 5 and report.gap_holds
        assert report.oracle_astab is None
        assert not report.all_checks_pass

    def test_undetermined_tail_is_not_refuted(self):
        # s_max <= astab cannot show a tail of length two.
        report = verify_gap(2, s_max=3)
        assert report.oracle_astab is None and report.tail_undetermined
        assert not report.refuted and not report.all_checks_pass
        assert replace(report, gap_holds=False).refuted

    def test_missing_tail_past_astab_is_refuted(self):
        report = replace(verify_gap(2), oracle_astab=None)
        assert report.s_max == report.astab + 1
        assert not report.tail_undetermined and report.refuted
        assert not verify_gap(2).refuted

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            verify_gap(0)

    @pytest.mark.parametrize(
        "tail, s_max, astab, contradicts",
        [
            (None, 2, 3, False),  # too short to show a tail
            (None, 3, 3, False),
            (None, 4, 3, True),  # past astab a tail must show
            (2, 4, 3, True),  # earlier than proven
            (4, 6, 3, True),  # later than proven
            (3, 4, 3, False),
            (3, 6, 3, False),
        ],
    )
    def test_tail_verdict_table(self, tail, s_max, astab, contradicts):
        assert tail_contradicts_astab(tail, s_max, astab) is contradicts
        report = replace(verify_gap(1), oracle_astab=tail, s_max=s_max, astab=astab)
        assert report.refuted is contradicts


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: partial_cover_ideal(path_graph(3), 0), "t"),
        (lambda: build_gap_family(0), "m"),
        (lambda: verify_gap(0), "m"),
        (lambda: predict_ass_star(0, 1, 1), "n"),
        pytest.param(lambda: star_generators(0, 1), "n", id="star_generators-n"),
    ],
)
def test_positive_parameter_wording(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{name} must be a positive integer, got 0"


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: predict_ass_tree(path_graph(4), 2, 2.5), "s", 2.5),
        (lambda: predict_ass_tree_powers(path_graph(4), 2, 2.5), "s_max", 2.5),
        (lambda: predict_ass_tree_powers(path_graph(4), True, 2), "t", True),
        (lambda: max_ideal_in_ass_star(5, 2, 2.5), "s", 2.5),
        (lambda: astab_tree(path_graph(4), True), "t", True),
        (lambda: predict_ass_star(4, 2, 1.5), "s", 1.5),
    ],
    ids=[
        "predict_ass_tree",
        "predict_ass_tree_powers-s_max",
        "predict_ass_tree_powers-t",
        "max_ideal_in_ass_star",
        "astab_tree",
        "predict_ass_star",
    ],
)
def test_positive_parameter_is_an_int(call, name, value):
    # A float or a bool compares as a number, so only the type tells it
    # from a positive integer.
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{name} must be a positive integer, got {value}"


def test_baseline_bound_across_corpus():
    # chi - 1 <= astab whenever the tail is pinned down empirically.
    for name, h in hypergraph_corpus():
        I = hypergraph_cover_ideal(h)
        if I.is_unit or I.is_zero:
            continue
        from covertool.associated import empirical_astab

        report = empirical_astab(I, 4)
        if report.astab_value is None:
            continue
        assert chromatic_number(h) - 1 <= report.astab_value, name
