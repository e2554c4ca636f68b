"""Finite simple graphs and hypergraphs over a fixed, ordered vertex set.

The vertex order given at construction is significant: it fixes the
variable order for every ideal computed downstream, which keeps all
outputs deterministic.
"""

from __future__ import annotations

import itertools

from .record import Record, _set


class ParseError(ValueError):
    """A graph or hypergraph file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph(Record):
    """A finite simple graph: ordered vertex labels plus undirected edges."""

    # _adjacency: each vertex's neighbours in vertex order, built once
    # from the edges; not part of the graph's value.
    __slots__ = ("vertices", "edges", "_adjacency")

    def __init__(self, vertices: tuple[str, ...], edges: frozenset[frozenset[str]]):
        seen = set()
        for v in vertices:
            if v in seen:
                raise ValueError(f"duplicate vertex label {v!r}")
            seen.add(v)
        adjacency = {v: set() for v in vertices}
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {sorted(e)} must join two distinct vertices")
            for v in e:
                if v not in seen:
                    raise ValueError(f"edge endpoint {v!r} is not a listed vertex")
            u, v = e
            adjacency[u].add(v)
            adjacency[v].add(u)
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "_adjacency", {
            v: tuple(u for u in vertices if u in nbrs)
            for v, nbrs in adjacency.items()
        })

    @classmethod
    def build(cls, vertices, edges) -> Graph:
        """Construct from any iterables of labels and label pairs."""
        return cls(tuple(vertices), frozenset(frozenset(e) for e in edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"unknown vertex label {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbours of v, in vertex order."""
        try:
            return self._adjacency[v]
        except KeyError:
            raise ValueError(f"unknown vertex label {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        if not self.vertices:
            raise ValueError("empty graph has no maximal degree")
        return max(self.degree(v) for v in self.vertices)

    def induced(self, subset) -> Graph:
        """Induced subgraph on the given vertices, keeping the vertex order."""
        keep = set(subset)
        for v in keep:
            self.index(v)
        return Graph(
            tuple(v for v in self.vertices if v in keep),
            frozenset(e for e in self.edges if e <= keep),
        )

    def is_connected(self) -> bool:
        if not self.vertices:
            raise ValueError("connectivity is undefined for the empty graph")
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for u in self.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(self.vertices)

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.vertices) - 1


class Hypergraph(Record):
    """A simple hypergraph: no edge of size < 2, no edge containing another."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: frozenset[frozenset[str]]):
        seen = set()
        for v in vertices:
            if v in seen:
                raise ValueError(f"duplicate vertex label {v!r}")
            seen.add(v)
        for e in edges:
            if len(e) < 2:
                raise ValueError(f"hyperedge {sorted(e)} has fewer than two vertices")
            if not e <= seen:
                raise ValueError(f"hyperedge {sorted(e)} uses unknown vertices")
        # Walk edges by their vertex indices so the error names the same
        # pair on every run, whatever the string hash seed.
        order = {v: i for i, v in enumerate(vertices)}
        ranked = sorted(edges, key=lambda e: sorted(order[v] for v in e))
        for e, f in itertools.combinations(ranked, 2):
            if e < f or f < e:
                raise ValueError(
                    f"not simple: edge {sorted(e)} is comparable with {sorted(f)}"
                )
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)

    @classmethod
    def build(cls, vertices, edges) -> Hypergraph:
        return cls(tuple(vertices), frozenset(frozenset(e) for e in edges))

    @property
    def n(self) -> int:
        return len(self.vertices)


class StarShape(Record):
    """The labelled star K_{1,r}: one center adjacent to r >= 1 leaves."""

    __slots__ = ("center", "leaves")

    @property
    def r(self) -> int:
        return len(self.leaves)


class SpecialVertex(Record):
    """A vertex of a tree all of whose neighbours, except possibly one,
    are leaves.  `branch_neighbor` is the possibly-non-leaf neighbour."""

    __slots__ = ("vertex", "leaf_neighbors", "branch_neighbor")


def star_shape(g: Graph) -> StarShape | None:
    """Recognise g as a labelled star K_{1,r}, r >= 1, or return None.

    For a single edge both endpoints qualify as center; the one earlier
    in vertex order wins.
    """
    n = g.n
    if n < 2 or len(g.edges) != n - 1:
        return None
    for c in g.vertices:
        if g.degree(c) == n - 1 and all(g.degree(v) == 1 for v in g.vertices if v != c):
            return StarShape(c, frozenset(v for v in g.vertices if v != c))
    return None


def find_special_vertex(g: Graph) -> SpecialVertex:
    """Locate the earliest vertex with at most one non-leaf neighbour.

    Every tree on >= 2 vertices has such a vertex (walk to the end of a
    longest path and step back once).  Endpoint vertices whose only
    neighbour is internal are skipped: a qualifying vertex must have at
    least one leaf neighbour, which is what makes it useful for peeling
    generators off the cover ideal.
    """
    if not g.is_tree():
        raise ValueError("special-vertex search is defined for trees only")
    if g.n < 2:
        raise ValueError("need at least two vertices")
    for v in g.vertices:
        nbrs = g.neighbors(v)
        leaves = tuple(u for u in nbrs if g.degree(u) == 1)
        others = [u for u in nbrs if g.degree(u) > 1]
        if leaves and len(others) <= 1:
            return SpecialVertex(v, leaves, others[0] if others else None)
    raise AssertionError("unreachable: every tree on >= 2 vertices has a special vertex")


def enumerate_induced_stars(g: Graph, rmin: int, rmax: int) -> list[frozenset[str]]:
    """All vertex subsets inducing a star K_{1,r} with rmin <= r <= rmax.

    Each is a centre v plus r pairwise non-adjacent neighbours of v; an
    edge (K_{1,1}) arises from both of its ends and is listed once.
    Ordered by subset size, then lexicographically on the sorted labels.
    """
    if not 1 <= rmin <= rmax:
        raise ValueError("need 1 <= rmin <= rmax")
    found = set()
    for v in g.vertices:
        nbrs = g.neighbors(v)
        for r in range(rmin, min(rmax, len(nbrs)) + 1):
            for leaves in itertools.combinations(nbrs, r):
                if not any(
                    frozenset(pair) in g.edges
                    for pair in itertools.combinations(leaves, 2)
                ):
                    found.add(frozenset((v, *leaves)))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


# Named constructions used throughout the test corpus and scripts.

def path_graph(n: int) -> Graph:
    """The path x1 - x2 - ... - xn."""
    vs = [f"x{i}" for i in range(1, n + 1)]
    return Graph.build(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """The star K_{1,n} with center z and leaves x1..xn."""
    vs = ["z"] + [f"x{i}" for i in range(1, n + 1)]
    return Graph.build(vs, [("z", v) for v in vs[1:]])


def cycle_graph(n: int) -> Graph:
    """The cycle x1 - x2 - ... - xn - x1 on n >= 3 vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    vs = [f"x{i}" for i in range(1, n + 1)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return Graph.build(vs, edges)


def spider(*leg_lengths: int) -> Graph:
    """A spider: one center c with paths (legs) of the given lengths."""
    vs = ["c"]
    edges = []
    for leg, length in enumerate(leg_lengths, start=1):
        prev = "c"
        for step in range(1, length + 1):
            v = f"a{leg}_{step}"
            vs.append(v)
            edges.append((prev, v))
            prev = v
    return Graph.build(vs, edges)


def broom(handle: int, bristles: int) -> Graph:
    """A path of `handle` vertices with `bristles` extra leaves at the far end."""
    vs = [f"x{i}" for i in range(1, handle + 1)]
    edges = [(vs[i], vs[i + 1]) for i in range(handle - 1)]
    for j in range(1, bristles + 1):
        v = f"b{j}"
        vs.append(v)
        edges.append((vs[handle - 1], v))
    return Graph.build(vs, edges)


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers u, v carrying a and b leaves respectively."""
    vs = ["u", "v"] + [f"p{i}" for i in range(1, a + 1)] + [f"q{i}" for i in range(1, b + 1)]
    edges = [("u", "v")]
    edges += [("u", f"p{i}") for i in range(1, a + 1)]
    edges += [("v", f"q{i}") for i in range(1, b + 1)]
    return Graph.build(vs, edges)


# Text format:  `vertices: a b c` then `edge: u v` lines; `#` starts a
# comment line; blank lines are ignored.

def _parse_lines(text: str):
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("second 'vertices:' line", lineno)
            vertices = line[len("vertices:"):].split()
            if not vertices:
                raise ParseError("'vertices:' line lists no labels", lineno)
        elif line.startswith("edge:"):
            if vertices is None:
                raise ParseError("'edge:' before 'vertices:'", lineno)
            labels = line[len("edge:"):].split()
            if len(labels) < 2:
                raise ParseError("an edge needs at least two labels", lineno)
            if len(set(labels)) != len(labels):
                raise ParseError("repeated label in edge", lineno)
            for v in labels:
                if v not in vertices:
                    raise ParseError(f"unknown vertex {v!r} in edge", lineno)
            edges.append((lineno, labels))
        else:
            raise ParseError(f"unrecognised line {line.split()[0]!r}...", lineno)
    if vertices is None:
        raise ParseError("missing 'vertices:' line")
    return vertices, edges


def _build(cls, vertices, edges):
    try:
        return cls.build(vertices, [labels for _, labels in edges])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; every edge must have exactly two labels."""
    vertices, edges = _parse_lines(text)
    for lineno, labels in edges:
        if len(labels) != 2:
            raise ParseError("a graph edge needs exactly two labels", lineno)
    return _build(Graph, vertices, edges)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hypergraph text format; edges may have two or more labels."""
    return _build(Hypergraph, *_parse_lines(text))


def parse_graph_or_hypergraph(text: str) -> Graph | Hypergraph:
    """Parse the text format once: a Graph when every edge has two labels,
    a Hypergraph otherwise."""
    vertices, edges = _parse_lines(text)
    pairs = all(len(labels) == 2 for _, labels in edges)
    return _build(Graph if pairs else Hypergraph, vertices, edges)


def _render(vertices: tuple[str, ...], edges) -> str:
    order = {v: i for i, v in enumerate(vertices)}
    rows = sorted(
        (tuple(sorted(e, key=order.__getitem__)) for e in edges),
        key=lambda row: tuple(order[v] for v in row),
    )
    lines = ["vertices: " + " ".join(vertices)]
    lines += ["edge: " + " ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def graph_to_text(g: Graph) -> str:
    """Render in the same text format parse_graph reads."""
    return _render(g.vertices, g.edges)


def hypergraph_to_text(h: Hypergraph) -> str:
    """Render in the same text format parse_hypergraph reads."""
    return _render(h.vertices, h.edges)
