import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from stars_reference import reference_induced_stars

from covertool.catalog import graph_corpus
from covertool.graphs import (
    Graph,
    Hypergraph,
    ParseError,
    broom,
    cycle_graph,
    double_star,
    enumerate_induced_stars,
    find_special_vertex,
    graph_to_text,
    hypergraph_to_text,
    parse_graph,
    parse_hypergraph,
    path_graph,
    spider,
    star_graph,
    star_shape,
)


class TestGraphConstruction:
    def test_vertex_order_is_preserved(self):
        g = Graph.build(("b", "a", "c"), [("a", "b")])
        assert g.vertices == ("b", "a", "c")
        assert g.index("a") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.build(("a", "a"), [])

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph.build(("a", "b"), [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph.build(("a", "b"), [("a", "c")])

    def test_neighbors_in_vertex_order(self):
        g = Graph.build(("c", "a", "b"), [("a", "b"), ("b", "c")])
        assert g.neighbors("b") == ("c", "a")
        assert g.degree("b") == 2
        assert g.max_degree() == 2
        # The adjacency is built from the edges and is not part of the
        # graph's value.
        same = Graph.build(("c", "a", "b"), [("c", "b"), ("b", "a")])
        assert same == g and hash(same) == hash(g)
        assert "_adjacency" not in repr(g)

    def test_unknown_vertex_lookup(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="unknown vertex"):
            g.index("nope")
        with pytest.raises(ValueError, match="unknown vertex"):
            g.neighbors("nope")

    def test_induced_subgraph(self):
        g = path_graph(4)
        sub = g.induced(("x1", "x2", "x4"))
        assert sub.vertices == ("x1", "x2", "x4")
        assert sub.edges == frozenset({frozenset({"x1", "x2"})})

    def test_connectivity_and_tree(self):
        assert path_graph(5).is_connected()
        assert path_graph(5).is_tree()
        assert not cycle_graph(4).is_tree()
        two_parts = Graph.build(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        assert not two_parts.is_connected()
        assert not two_parts.is_tree()
        empty = Graph.build((), [])
        with pytest.raises(ValueError, match="connectivity is undefined"):
            empty.is_connected()
        with pytest.raises(ValueError, match="empty graph has no maximal degree"):
            empty.max_degree()


class TestConstructors:
    def test_path(self):
        g = path_graph(4)
        assert g.vertices == ("x1", "x2", "x3", "x4")
        assert len(g.edges) == 3

    def test_star_center_first(self):
        g = star_graph(3)
        assert g.vertices == ("z", "x1", "x2", "x3")
        assert g.degree("z") == 3

    def test_cycle(self):
        g = cycle_graph(5)
        assert len(g.edges) == 5
        assert all(g.degree(v) == 2 for v in g.vertices)
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_spider(self):
        g = spider(1, 1, 2)
        assert g.n == 5
        assert g.max_degree() == 3
        assert g.is_tree()

    def test_broom(self):
        g = broom(4, 3)
        assert g.n == 7
        assert g.degree("x4") == 4
        assert g.is_tree()

    def test_double_star(self):
        g = double_star(2, 3)
        assert g.n == 7
        assert g.degree("u") == 3 and g.degree("v") == 4
        assert g.is_tree()


class TestStarShape:
    def test_detects_stars(self):
        shape = star_shape(star_graph(4))
        assert shape is not None
        assert shape.center == "z" and shape.r == 4

    def test_single_edge_earlier_endpoint_wins(self):
        shape = star_shape(path_graph(2))
        assert shape.center == "x1" and shape.leaves == frozenset({"x2"})

    def test_rejects_non_stars(self):
        assert star_shape(path_graph(4)) is None
        assert star_shape(cycle_graph(3)) is None
        assert star_shape(Graph.build(("a",), [])) is None


class TestSpecialVertex:
    def test_star_center(self):
        sv = find_special_vertex(star_graph(3))
        assert sv.vertex == "z"
        assert sv.leaf_neighbors == ("x1", "x2", "x3")
        assert sv.branch_neighbor is None

    def test_path_interior(self):
        sv = find_special_vertex(path_graph(4))
        assert sv.vertex == "x2"
        assert sv.leaf_neighbors == ("x1",)
        assert sv.branch_neighbor == "x3"

    def test_single_edge(self):
        sv = find_special_vertex(path_graph(2))
        assert sv.vertex == "x1"
        assert sv.leaf_neighbors == ("x2",)
        assert sv.branch_neighbor is None

    def test_every_corpus_tree_has_one(self):
        for g in [path_graph(7), spider(1, 2, 2), double_star(2, 3), broom(4, 3)]:
            sv = find_special_vertex(g)
            assert g.degree(sv.vertex) == len(sv.leaf_neighbors) + (
                sv.branch_neighbor is not None
            )
            for leaf in sv.leaf_neighbors:
                assert g.degree(leaf) == 1

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            find_special_vertex(cycle_graph(4))
        # One vertex is a tree, but has no neighbour to peel.
        with pytest.raises(ValueError, match="at least two vertices"):
            find_special_vertex(Graph.build(("a",), []))


def _benchmark_trees():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.tree_corpus()


class TestInducedStars:
    def test_path_has_only_small_stars(self):
        stars = enumerate_induced_stars(path_graph(4), 1, 3)
        # Edges are K_{1,1}; the two interior vertices give K_{1,2}.
        assert frozenset({"x1", "x2", "x3"}) in stars
        assert frozenset({"x2", "x3", "x4"}) in stars
        assert len([s for s in stars if len(s) == 2]) == 3
        assert len([s for s in stars if len(s) == 4]) == 0

    def test_star_graph_substars(self):
        stars = enumerate_induced_stars(star_graph(3), 2, 3)
        by_size = {}
        for s in stars:
            by_size.setdefault(len(s), []).append(s)
        assert len(by_size[3]) == 3  # z with two of three leaves
        assert len(by_size[4]) == 1

    def test_canonical_order(self):
        stars = enumerate_induced_stars(path_graph(5), 1, 2)
        assert stars == sorted(stars, key=lambda s: (len(s), tuple(sorted(s))))

    def test_matches_subset_search(self):
        # Every corpus graph (C4 and C5 included) and the benchmark's 30
        # trees, for every range 1 <= rmin <= rmax <= n.
        graphs = dict(graph_corpus())
        assert {"C4", "C5"} <= graphs.keys()
        for k, edges in enumerate(_benchmark_trees()):
            names = [f"v{i}" for i in range(1 + len(edges))]
            graphs[f"tree{k}"] = Graph.build(
                names, [(names[a], names[b]) for a, b in edges]
            )
        assert len(graphs) >= len(graph_corpus()) + 30
        for name, g in graphs.items():
            for rmin in range(1, g.n + 1):
                for rmax in range(rmin, g.n + 1):
                    assert enumerate_induced_stars(
                        g, rmin, rmax
                    ) == reference_induced_stars(g, rmin, rmax), (name, rmin, rmax)

    def test_edge_listed_once(self):
        # K_{1,1} has two centres.
        assert enumerate_induced_stars(path_graph(2), 1, 1) == [
            frozenset({"x1", "x2"})
        ]

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            enumerate_induced_stars(path_graph(3), 2, 1)
        with pytest.raises(ValueError):
            enumerate_induced_stars(path_graph(3), 0, 2)


class TestHypergraph:
    def test_comparable_edges_rejected(self):
        with pytest.raises(ValueError, match="not simple"):
            Hypergraph.build(("a", "b", "c"), [("a", "b"), ("a", "b", "c")])

    def test_small_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.build(("a", "b"), [("a",)])
        with pytest.raises(ValueError, match=r"hyperedge \['a', 'c'\] uses unknown"):
            Hypergraph.build(("a", "b"), [("a", "c")])

    def test_valid_build(self):
        h = Hypergraph.build(("a", "b", "c", "d"), [("a", "b", "c"), ("b", "c", "d")])
        assert h.n == 4


class TestParsing:
    def test_graph_round_trip(self):
        for g in [path_graph(5), star_graph(4), cycle_graph(5), spider(1, 1, 2)]:
            assert parse_graph(graph_to_text(g)) == g

    def test_hypergraph_round_trip(self):
        h = Hypergraph.build(("z", "a", "b"), [("z", "a", "b")])
        assert parse_hypergraph(hypergraph_to_text(h)) == h

    def test_comments_and_blanks(self):
        text = "# a path\n\nvertices: a b c\n\nedge: a b\n# middle\nedge: b c\n"
        g = parse_graph(text)
        assert g.vertices == ("a", "b", "c")
        assert len(g.edges) == 2

    def test_missing_vertices_line(self):
        with pytest.raises(ParseError, match="missing 'vertices:'"):
            parse_graph("# just a comment\n")
        with pytest.raises(ParseError, match="line 1: 'vertices:' line lists no labels"):
            parse_graph("vertices:\n")

    def test_edge_before_vertices(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("edge: a b\nvertices: a b\n")

    def test_second_vertices_line(self):
        with pytest.raises(ParseError, match="line 2: second"):
            parse_graph("vertices: a b\nvertices: a b\n")

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(ParseError, match="line 2: unknown vertex"):
            parse_graph("vertices: a b\nedge: a c\n")

    def test_short_edge_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("vertices: a b\n# pad\nedge: a\n")

    def test_graph_rejects_wide_edges(self):
        text = "vertices: a b c\nedge: a b c\n"
        with pytest.raises(ParseError, match="exactly two"):
            parse_graph(text)
        assert parse_hypergraph(text).n == 3

    def test_unrecognised_line(self):
        with pytest.raises(ParseError, match="unrecognised"):
            parse_graph("vertices: a b\nnode: a\n")

    def test_repeated_label_in_edge(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_graph("vertices: a b\nedge: a a\n")


@given(st.integers(2, 8))
def test_path_vertex_and_edge_counts(n):
    g = path_graph(n)
    assert g.n == n and len(g.edges) == n - 1 and g.is_tree()


@given(st.integers(1, 8))
def test_star_shape_identifies_all_stars(n):
    shape = star_shape(star_graph(n))
    if n == 1:
        # A single edge: the earlier endpoint is reported as the centre.
        assert shape.center == "z" and shape.r == 1
    else:
        assert shape.center == "z" and shape.r == n


@given(st.sets(st.sampled_from(["x1", "x2", "x3", "x4", "x5"]), min_size=1))
def test_induced_is_subgraph(subset):
    g = cycle_graph(5)
    sub = g.induced(sorted(subset, key=g.index))
    for e in sub.edges:
        assert e in g.edges
    assert set(sub.vertices) == subset
