"""The ten headline checks, each at zero tolerance.

Every test compares an exact combinatorial prediction against the
irreducible-decomposition oracle (or a hand-provable identity) over a
fixed finite grid.  A failure here is not noise: it means either the
implementation or a closed form is wrong.  The summary hook in conftest
prints one ACCEPTANCE line per criterion.
"""

import itertools
import math
import operator
import random

from minimalizers import (
    reference_contains_ideal,
    reference_intersection,
    reference_product,
    support_vector,
)

from covertool.associated import (
    ass_of_power,
    astab_tree,
    build_star_witness,
    connectivity_check,
    localization_check,
    max_ideal_in_ass_star,
    predict_ass_star,
    predict_ass_tree,
)
from covertool.catalog import graph_corpus
from covertool.covers import (
    enumerate_minimal_partial_covers,
    partial_cover_ideal,
    star_generators,
)
from covertool.graphs import star_graph
from covertool.hypercovers import verify_gap
from covertool.monomials import (
    MonomialPrime,
    colon,
    contains,
    irreducible_decomposition,
    minimalize,
)

STAR_GRID = [
    (n, t, s)
    for n in range(1, 6)
    for t in range(1, n + 1)
    for s in range(1, 5)
]


def test_criterion_01_star_closed_form():
    for n, t, s in STAR_GRID:
        oracle = ass_of_power(star_graph(n), t, s).primes
        predicted = predict_ass_star(n, t, s).primes
        assert oracle == predicted, (n, t, s)


def test_criterion_02_max_ideal_criterion():
    for n, t, s in STAR_GRID:
        oracle = ass_of_power(star_graph(n), t, s).primes
        maximal = MonomialPrime(frozenset(range(n + 1)))
        in_ass = maximal in oracle
        assert in_ass == (s * (t - 1) >= n - 1), (n, t, s)
        assert in_ass == max_ideal_in_ass_star(n, t, s), (n, t, s)


def test_criterion_03_tree_closed_form(tree_sweep):
    assert len({name for name, _ in tree_sweep}) == 15
    for (name, t), (g, per_power) in tree_sweep.items():
        for s, oracle in enumerate(per_power, start=1):
            predicted = predict_ass_tree(g, t, s).primes
            assert oracle == predicted, (name, t, s)


def test_criterion_04_astab_and_persistence(tree_sweep):
    for (name, t), (g, per_power) in tree_sweep.items():
        for earlier, later in zip(per_power, per_power[1:]):
            assert earlier <= later, (name, t)
        tail = len(per_power)
        while tail > 1 and per_power[tail - 2] == per_power[-1]:
            tail -= 1
        assert tail < len(per_power), (name, t)
        expected = astab_tree(g, t)
        assert tail == expected, (name, t, tail, expected)


def test_criterion_05_generator_duality():
    for name, g in graph_corpus():
        for t in range(1, g.max_degree() + 1):
            via_intersection = partial_cover_ideal(g, t)
            gens = [
                support_vector([g.index(v) for v in cover], g.n)
                for cover in enumerate_minimal_partial_covers(g, t)
            ]
            via_covers = minimalize(g.vertices, gens)
            assert via_intersection == via_covers, (name, t)


def test_criterion_06_star_generators():
    for n in range(1, 7):
        for t in range(1, n + 1):
            closed = star_generators(n, t)
            direct = partial_cover_ideal(star_graph(n), t)
            assert closed == direct, (n, t)
            assert len(closed.gens) == 1 + math.comb(n, n - t + 1), (n, t)


def test_criterion_07_witness_construction():
    for n in range(2, 6):
        for t in range(2, n + 1):
            s0 = math.ceil((n - 1) / (t - 1))
            for s in range(s0, s0 + 3):
                cert = build_star_witness(n, t, s)
                assert cert.not_in_power, (n, t, s)
                assert cert.colon_equals_prime, (n, t, s)


def test_criterion_08_complete_intersection_stability():
    for n in range(1, 6):
        g = star_graph(n)
        expected = {
            MonomialPrime(frozenset({0, i})) for i in range(1, n + 1)
        }
        for s in range(1, 4):
            assert ass_of_power(g, 1, s).primes == expected, (n, s)


def test_criterion_09_hypergraph_gap():
    for m in (1, 2, 3):
        report = verify_gap(m)
        assert report.chi == 2, m
        assert report.astab == m + 1, m
        assert report.gap_holds and report.gap_is_equality, m
        assert report.all_checks_pass, m


def _random_proper_ideal(rng, nvars):
    ambient = ("x1", "x2", "x3", "x4")[:nvars]
    gens = []
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        while not any(exps):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        gens.append(exps)
    return minimalize(ambient, gens)


def _component_vector(comp, nvars):
    bounds = dict(comp.bounds)
    return tuple(bounds.get(i, math.inf) for i in range(nvars))


def test_criterion_10_property_suites():
    rng = random.Random(20260823)
    cases = 0
    for _ in range(1000):
        nvars = rng.choice((3, 4))
        I = _random_proper_ideal(rng, nvars)
        J = _random_proper_ideal(rng, nvars)
        components = irreducible_decomposition(I)
        rebuilt = None
        for comp in components:
            part = comp.as_ideal(I.ambient)
            rebuilt = part if rebuilt is None else reference_intersection(rebuilt, part)
        assert rebuilt == I
        for a, b in itertools.permutations(components, 2):
            va = _component_vector(a, nvars)
            vb = _component_vector(b, nvars)
            assert not all(x <= y for x, y in zip(va, vb))
        m = tuple(rng.randint(0, 2) for _ in range(nvars))
        u = tuple(rng.randint(0, 3) for _ in range(nvars))
        assert contains(colon(I, m), u) == contains(I, tuple(map(operator.add, u, m)))
        meet = reference_intersection(I, J)
        assert contains(meet, u) == (contains(I, u) and contains(J, u))
        assert reference_contains_ideal(meet, reference_product(I, J))
        for g1, g2 in itertools.permutations(I.gens, 2):
            assert not all(x <= y for x, y in zip(g1, g2))
        cases += 1
    assert cases >= 1000

    # The two graph-level consistency checks must hold corpus-wide.
    for name, g in graph_corpus():
        for t in range(1, g.max_degree() + 1):
            for s in (1, 2):
                report = ass_of_power(g, t, s)
                assert connectivity_check(report, g), (name, t, s)
                subsets = {p.labels(report.ambient) for p in report.primes}
                subsets.add(g.vertices)
                subsets.update((v,) for v in g.vertices)
                subsets.update(itertools.combinations(g.vertices, 2))
                for subset in subsets:
                    assert localization_check(report, g, subset), (name, t, s, subset)
