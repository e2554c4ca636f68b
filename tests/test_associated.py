import itertools
import math

import pytest

from covertool.associated import (
    ass_of_power,
    astab_tree,
    build_star_witness,
    connectivity_check,
    empirical_astab,
    localization_check,
    max_ideal_in_ass_star,
    oracle_sweep,
    predict_ass_star,
    predict_ass_tree,
    verify_annihilator_divisibility,
)
from covertool import monomials
from covertool.associated import _witness_checks
from covertool.catalog import nontree_graphs, trees_up_to_6
from covertool.covers import partial_cover_ideal, star_generators
from covertool.graphs import cycle_graph, path_graph, spider, star_graph
from covertool.monomials import (
    MonomialPrime,
    associated_primes,
    colon,
    contains,
    ideal_power,
    minimalize,
    monomial_from_str,
    power_primes,
)


def prime_of(g, *labels):
    return MonomialPrime(frozenset(g.index(v) for v in labels))


class TestAssOfPower:
    def test_path4(self):
        report = ass_of_power(path_graph(4), 2, 1)
        g = path_graph(4)
        assert report.primes == {
            prime_of(g, "x1", "x2", "x3"),
            prime_of(g, "x2", "x3", "x4"),
        }
        assert report.method == "oracle"

    def test_star3_squared_gains_maximal(self):
        g = star_graph(3)
        report = ass_of_power(g, 2, 2)
        assert len(report.primes) == 4
        assert prime_of(g, "z", "x1", "x2", "x3") in report.primes

    def test_complete_intersection_constant(self):
        for n in (1, 2, 3):
            g = star_graph(n)
            expected = {prime_of(g, "z", f"x{i}") for i in range(1, n + 1)}
            for s in (1, 2, 3):
                assert ass_of_power(g, 1, s).primes == expected

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError, match="no constraints"):
            ass_of_power(path_graph(4), 3, 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ass_of_power(path_graph(4), 2, 1, mode="sideways")

    def test_localized_agrees_with_direct(self):
        cases = [
            (path_graph(4), 2, 2),
            (star_graph(4), 2, 3),
            (spider(1, 1, 2), 2, 2),
            (cycle_graph(4), 2, 2),
            (cycle_graph(5), 2, 3),
        ]
        for g, t, s in cases:
            direct = ass_of_power(g, t, s, "direct")
            localized = ass_of_power(g, t, s, "localized")
            assert direct.primes == localized.primes


class TestMaxIdealCriterion:
    def test_contract_examples(self):
        assert not max_ideal_in_ass_star(3, 2, 1)
        assert max_ideal_in_ass_star(3, 2, 2)
        assert max_ideal_in_ass_star(4, 3, 2)
        assert max_ideal_in_ass_star(1, 1, 1)
        assert not max_ideal_in_ass_star(2, 1, 3)

    def test_t_above_n_rejected(self):
        with pytest.raises(ValueError):
            max_ideal_in_ass_star(2, 3, 1)

    def test_agrees_with_oracle_on_small_grid(self):
        for n in range(1, 5):
            g = star_graph(n)
            for t in range(1, n + 1):
                for s in range(1, 4):
                    report = ass_of_power(g, t, s)
                    maximal = MonomialPrime(frozenset(range(n + 1)))
                    assert (maximal in report.primes) == max_ideal_in_ass_star(
                        n, t, s
                    ), (n, t, s)


class TestPredictStar:
    def test_sizes(self):
        assert len(predict_ass_star(4, 3, 2).primes) == 5
        assert len(predict_ass_star(3, 2, 1).primes) == 3
        assert {p.indices for p in predict_ass_star(2, 1, 5).primes} == {
            (0, 1),
            (0, 2),
        }

    def test_method_label(self):
        assert predict_ass_star(3, 2, 1).method == "closed_form"

    def test_t_above_n_rejected(self):
        with pytest.raises(ValueError):
            predict_ass_star(3, 4, 1)

    def test_oracle_on_large_cells(self):
        # 3,432 generators and 6,378 components, then 7,198 and 11,832.
        for n, t, s in ((7, 2, 7), (8, 3, 4)):
            power = ideal_power(star_generators(n, t), s)
            expected = predict_ass_star(n, t, s).primes
            assert associated_primes(power) == expected, (n, t, s)

    def test_oracle_past_the_staircase_limit(self):
        # Boxes of 3.9e8, 6.1e7, 3.6e8 and 4.9e7 points, all decomposed
        # by the incremental loop: 24,237, 89,770, 200,222 and 313,973
        # components.
        for n, t, s in ((8, 2, 8), (9, 3, 5), (10, 3, 5), (10, 4, 4)):
            assert (s + 1) ** (n + 1) > monomials._STAIRCASE_MAX_BITS
            expected = predict_ass_star(n, t, s).primes
            assert power_primes(star_generators(n, t), s) == expected, (n, t, s)


class TestPredictTree:
    def test_path4_any_power(self):
        g = path_graph(4)
        expected = {
            prime_of(g, "x1", "x2", "x3"),
            prime_of(g, "x2", "x3", "x4"),
        }
        for s in (1, 2, 3):
            assert predict_ass_tree(g, 2, s).primes == expected

    def test_star_predictors_agree(self):
        star_form = predict_ass_star(4, 2, 3)
        tree_form = predict_ass_tree(star_graph(4), 2, 3)
        assert star_form.primes == tree_form.primes
        assert star_form.ambient == tree_form.ambient

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="only for trees"):
            predict_ass_tree(cycle_graph(4), 2, 1)

    def test_unit_range_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            predict_ass_tree(path_graph(3), 3, 1)


class TestAstabTree:
    def test_examples(self):
        assert astab_tree(star_graph(4), 2) == 3
        assert astab_tree(path_graph(4), 1) == 1
        assert astab_tree(spider(1, 2, 2), 1) == 1
        assert astab_tree(path_graph(4), 2) == 1

    def test_formula(self):
        for n in range(2, 7):
            for t in range(2, n + 1):
                assert astab_tree(star_graph(n), t) == math.ceil(
                    (n - 1) / (t - 1)
                )

    def test_rejections(self):
        with pytest.raises(ValueError, match="trees"):
            astab_tree(cycle_graph(4), 1)
        with pytest.raises(ValueError, match="degree"):
            astab_tree(path_graph(4), 3)


class TestStability:
    def test_complete_intersection(self):
        ambient = ("z", "x1", "x2", "x3")
        I = minimalize(
            ambient,
            [monomial_from_str("z", ambient), monomial_from_str("x1*x2*x3", ambient)],
        )
        report = empirical_astab(I, 3)
        assert report.astab_value == 1
        assert report.persistence_ok

    def test_star_tail(self):
        report = empirical_astab(star_generators(4, 2), 4)
        assert report.astab_value == 3
        assert len(report.per_power) == 4

    def test_principal(self):
        ambient = ("x1", "x2")
        I = minimalize(ambient, [monomial_from_str("x1", ambient)])
        assert empirical_astab(I, 2).astab_value == 1

    def test_tail_of_length_one_is_not_determined(self):
        # Ass(J_2(C5)^s) changes at s=3; at s_max=3 the tail is a single
        # point and nothing can be concluded.
        I = partial_cover_ideal(cycle_graph(5), 2)
        assert empirical_astab(I, 3).astab_value is None
        assert empirical_astab(I, 4).astab_value == 3

    def test_validation(self):
        I = star_generators(3, 2)
        with pytest.raises(ValueError):
            empirical_astab(I, 0)
        with pytest.raises(ValueError, match="proper nonzero"):
            empirical_astab(minimalize(I.ambient, []), 2)
        # A single power has nothing to compare: persistence holds vacuously.
        report = empirical_astab(I, 1)
        assert report.persistence_ok and report.first_violation is None

    def test_persistence_examples(self):
        assert empirical_astab(star_generators(4, 2), 4).persistence_ok
        ambient = ("x1", "x2")
        I = minimalize(ambient, [monomial_from_str("x1*x2", ambient)])
        report = empirical_astab(I, 3)
        assert report.persistence_ok and report.first_violation is None

    def test_persistence_on_tree_sample(self):
        g = spider(1, 1, 2)
        report = empirical_astab(partial_cover_ideal(g, 2), 3)
        assert report.persistence_ok


class TestOracleSweep:
    def test_matches_per_power_oracle(self):
        for g, t in ((star_graph(4), 2), (path_graph(5), 2), (spider(1, 1, 2), 1)):
            report = oracle_sweep(g, t)
            assert len(report.per_power) == astab_tree(g, t) + 1
            for s, primes in enumerate(report.per_power, start=1):
                assert primes == ass_of_power(g, t, s).primes, (g, t, s)
            assert report.astab_value == astab_tree(g, t)

    def test_non_tree_needs_s_max(self):
        with pytest.raises(ValueError, match="trees"):
            oracle_sweep(cycle_graph(5), 2)
        assert oracle_sweep(cycle_graph(5), 2, 4).astab_value == 3

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError, match="no constraints"):
            oracle_sweep(path_graph(4), 3, 2)


class TestWitness:
    def test_basic_construction(self):
        cert = build_star_witness(3, 2, 2)
        ambient = ("z", "x1", "x2", "x3")
        assert cert.T == monomial_from_str("x1*x2*x3", ambient)
        assert cert.s0 == 2 and cert.e == 0
        assert cert.valid and not cert.empty_word

    def test_z_prefix_for_higher_powers(self):
        cert = build_star_witness(3, 2, 3)
        ambient = ("z", "x1", "x2", "x3")
        assert cert.T == monomial_from_str("z*x1*x2*x3", ambient)
        assert cert.e == 1 and cert.valid

    def test_empty_word_boundary(self):
        cert = build_star_witness(2, 2, 1)
        assert cert.T == (0, 0, 0)
        assert cert.empty_word and cert.valid

    def test_full_grid_certificates_pass(self):
        for n in range(2, 6):
            for t in range(2, n + 1):
                s0 = math.ceil((n - 1) / (t - 1))
                for s in range(s0, s0 + 3):
                    cert = build_star_witness(n, t, s)
                    assert cert.valid, (n, t, s)
                    assert cert.s0 == s0 and cert.e == s - s0

    def test_criterion_unmet_rejected(self):
        with pytest.raises(ValueError, match="not associated"):
            build_star_witness(4, 2, 1)

    def test_t1_rejected(self):
        with pytest.raises(ValueError, match="t >= 2"):
            build_star_witness(3, 1, 1)

    def test_membership_checks_agree_with_colon(self):
        # The criterion-07 grid; around each witness T, its neighbours
        # T*x_i and T/x_i lie in the power or have a smaller colon.
        for n in range(2, 6):
            for t in range(2, n + 1):
                s0 = math.ceil((n - 1) / (t - 1))
                m = MonomialPrime(frozenset(range(n + 1))).as_ideal(
                    star_graph(n).vertices
                )
                for s in range(s0, s0 + 3):
                    J = star_generators(n, t)
                    Js = ideal_power(J, s)  # the reference: contains and colon
                    T = build_star_witness(n, t, s).T
                    probes = [T]
                    for i in range(n + 1):
                        for step in (1, -1):
                            if T[i] + step >= 0:
                                probes.append(T[:i] + (T[i] + step,) + T[i + 1 :])
                    for probe in probes:
                        want = (not contains(Js, probe), colon(Js, probe) == m)
                        assert _witness_checks(J, s, probe) == want, (n, t, s, probe)

    def test_membership_checks_agree_with_colon_beyond_stars(self):
        # Ideals with unequal exponents, where one x_i*T alone can keep
        # the colon from the maximal ideal; every T in a box past J^s.
        ambient = ("a", "b", "c")
        m = MonomialPrime(frozenset(range(3))).as_ideal(ambient)
        for gens in (
            [(2, 0, 0), (0, 1, 0), (0, 0, 3)],
            [(2, 1, 0), (0, 2, 1), (1, 0, 2)],
            [(1, 1, 0), (0, 0, 2)],
        ):
            J = minimalize(ambient, gens)
            for s in (1, 2):
                Js = ideal_power(J, s)
                for T in itertools.product(range(3 * s + 1), repeat=3):
                    want = (not contains(Js, T), colon(Js, T) == m)
                    assert _witness_checks(J, s, T) == want, (gens, s, T)


class TestAnnihilatorDivisibility:
    def test_constructed_witnesses_satisfy_bound(self):
        for n, t, s in [(3, 2, 2), (3, 2, 3), (2, 2, 1), (4, 3, 2), (5, 3, 4)]:
            cert = build_star_witness(n, t, s)
            assert verify_annihilator_divisibility(n, t, s, cert.T)

    def test_non_witness_rejected(self):
        ambient = ("z", "x1", "x2", "x3")
        inside = monomial_from_str("x1^2*x2*x3", ambient)  # (x1x2)(x1x3)
        with pytest.raises(ValueError, match="not a witness"):
            verify_annihilator_divisibility(3, 2, 2, inside)

    def test_colon_not_maximal_rejected(self):
        ambient = ("z", "x1", "x2", "x3")
        outside = monomial_from_str("x2*x3", ambient)  # x1*x2*x3 not in J^2
        with pytest.raises(ValueError, match="is not the maximal ideal; not a witness"):
            verify_annihilator_divisibility(3, 2, 2, outside)

    def test_oracle_found_witnesses_satisfy_bound(self):
        from covertool.monomials import ideal_power, witness_search

        for n, t, s in [(3, 2, 2), (4, 3, 2)]:
            Js = ideal_power(star_generators(n, t), s)
            maximal = MonomialPrime(frozenset(range(n + 1)))
            T = witness_search(Js, maximal)
            assert T is not None
            assert verify_annihilator_divisibility(n, t, s, T)


class TestLocalization:
    def test_contract_examples(self):
        g = path_graph(4)
        report = ass_of_power(g, 2, 1)
        assert localization_check(report, g, ("x1", "x2", "x3"))
        assert localization_check(report, g, ("x1", "x2"))
        star = star_graph(3)
        report = ass_of_power(star, 2, 2)
        assert localization_check(report, star, ("z", "x1", "x2", "x3"))

    def test_exhaustive_on_small_trees(self):
        small = [(name, g) for name, g in trees_up_to_6() if g.n <= 5]
        for name, g in small:
            for t in range(1, g.max_degree() + 1):
                for s in (1, 2, 3):
                    report = ass_of_power(g, t, s)
                    for size in range(1, g.n + 1):
                        for subset in itertools.combinations(g.vertices, size):
                            assert localization_check(report, g, subset), (
                                name,
                                t,
                                s,
                                subset,
                            )

    def test_unknown_vertices_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="unknown"):
            localization_check(ass_of_power(g, 1, 1), g, ("y1",))

    def test_ambient_mismatch_rejected(self):
        report = ass_of_power(path_graph(4), 2, 1)
        with pytest.raises(ValueError, match="ambient"):
            localization_check(report, path_graph(5), ("x1", "x2"))

    def test_needs_an_oracle_report(self):
        g = path_graph(4)
        localized = ass_of_power(g, 2, 1, mode="localized")
        for report in (localized, predict_ass_tree(g, 2, 1)):
            with pytest.raises(ValueError, match="oracle"):
                localization_check(report, g, ("x1", "x2"))


class TestConnectivity:
    def test_corpus_reports_connected(self):
        for name, g in trees_up_to_6() + nontree_graphs():
            for t in range(1, g.max_degree() + 1):
                report = ass_of_power(g, t, 2)
                assert connectivity_check(report, g), (name, t)

    def test_detects_disconnected_support(self):
        from covertool.associated import AssReport

        g = path_graph(4)
        fake = AssReport(
            g.vertices, 1, 1, "oracle", frozenset({prime_of(g, "x1", "x4")})
        )
        assert not connectivity_check(fake, g)

    def test_ambient_mismatch_rejected(self):
        report = ass_of_power(path_graph(4), 2, 1)
        with pytest.raises(ValueError, match="ambient"):
            connectivity_check(report, path_graph(5))
