"""Seeded inputs and independent output checks for the three workloads.

Each workload turns a seed into a list of `Command`s: one covertool
argv (a single user command) plus a check of its JSON output that does
not trust the command's own verdict.  Only the graph files written here
reach the program.

Decomposition cost depends strongly on variable order: the same 7-vertex
tree took 0.6 s under one vertex order and 3.7 s under another, and the
K_{1,6} cell (4,3) took 4.5-8.1 s depending on the centre's position.
A seed that chose the order would make wall time spread across seeds by
more than any bound the benchmark can allow, so the cost-bearing
structure is fixed: each star cell puts the centre at its own slot, and
the trees come from a fixed Prüfer corpus.  The seed draws vertex names, the
order of the leaves, and the order of edge lines and endpoints, which
every check has to see through.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

STAR_LEAVES = 6
# (t, s) cells of J_t(K_{1,6})^s.  The determinism check repeats the
# first command, so the cheapest cell goes first.
STAR_CELLS = ((5, 3), (3, 3), (2, 5), (4, 3))
# Slot of the centre in the vertex line, per cell: a different slot for
# each cell, so no one variable order is favoured, chosen among the
# cheaper slots to keep a batch short.
STAR_CENTRE_SLOTS = (3, 1, 5, 4)

TREE_VERTICES = 7
TREE_MAX_DEGREE = 4
TREE_COUNT = 30
TREE_CORPUS_SEED = 7

WITNESS_CELLS = ((6, 3, 4), (7, 2, 6), (7, 4, 3), (7, 3, 4))


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], bool]


def prufer_decode(seq, n: int) -> list[tuple[int, int]]:
    """The labelled tree on vertices 0..n-1 with Prüfer sequence `seq`."""
    if len(seq) != n - 2 or any(not 0 <= a < n for a in seq):
        raise ValueError(f"not a Prüfer sequence for {n} vertices: {seq}")
    degree = [1] * n
    for a in seq:
        degree[a] += 1
    edges = []
    for a in seq:
        leaf = degree.index(1)
        edges.append((leaf, a))
        degree[leaf] -= 1
        degree[a] -= 1
    u, w = (v for v in range(n) if degree[v] == 1)
    edges.append((u, w))
    return edges


def random_tree(rng: random.Random, n: int, max_degree: int) -> list[tuple[int, int]]:
    """A uniform labelled tree on n vertices with maximum degree <= max_degree.

    A vertex's degree is one more than its count in the Prüfer sequence,
    so rejection on the counts is rejection on the degrees.
    """
    while True:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        if all(seq.count(v) < max_degree for v in range(n)):
            return prufer_decode(seq, n)


def vertex_names(rng: random.Random, n: int) -> list[str]:
    """n distinct seeded labels, each two lowercase letters."""
    pool = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
    return rng.sample(pool, n)


def graph_text(vertices, edges, rng: random.Random) -> str:
    """The graph file, with edge lines and endpoints in seeded order."""
    rows = [list(e) for e in edges]
    for row in rows:
        rng.shuffle(row)
    rng.shuffle(rows)
    lines = ["vertices: " + " ".join(vertices)]
    lines += ["edge: " + " ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _monomial_supports(gens) -> set[frozenset[str]]:
    # Square-free generators render as `a*b*c`.
    return {frozenset(g.split("*")) for g in gens}


def _minimal(sets) -> set[frozenset[str]]:
    sets = set(sets)
    return {s for s in sets if not any(o < s for o in sets)}


# Star workload ---------------------------------------------------------


def star_primes(names: list[str], t: int, s: int) -> set[frozenset[str]]:
    """Ass(J_t(K_{1,n})^s) by the closed form, with ambient index i
    (0 = centre, i = leaf x_i) renamed to names[i]."""
    from covertool.associated import predict_ass_star

    report = predict_ass_star(len(names) - 1, t, s)
    return {frozenset(names[i] for i in p.indices) for p in report.primes}


def check_star(out: str, names: list[str], t: int, s: int, expected=None) -> bool:
    payload = json.loads(out)
    if expected is None:
        expected = star_primes(names, t, s)
    got = {frozenset(p) for p in payload["direct"]}
    return payload["match"] is True and got == expected


def star_command(path: Path, names: list[str], slot: int, t: int, s: int,
                 rng: random.Random, expected=None) -> Command:
    """Write K_{1,n} (names[0] the centre) with the centre at `slot` of
    the vertex line and return its `ass --predict` command.  `expected`
    replaces the closed-form prime set, to test the check itself."""
    leaves = names[1:]
    line = list(leaves)
    rng.shuffle(line)
    line.insert(slot, names[0])
    path.write_text(graph_text(line, [(names[0], x) for x in leaves], rng))
    argv = ("ass", "--t", str(t), "--s", str(s), "--predict", "--format", "json",
            str(path))
    return Command(argv, lambda out: check_star(out, names, t, s, expected))


def star_oracle(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for k, ((t, s), slot) in enumerate(zip(STAR_CELLS, STAR_CENTRE_SLOTS)):
        names = vertex_names(rng, STAR_LEAVES + 1)
        commands.append(
            star_command(workdir / f"star{k}.graph", names, slot, t, s, rng)
        )
    return commands


# Tree workload ---------------------------------------------------------


def partial_covers(vertices, edges, t: int) -> set[frozenset[str]]:
    """Minimal vertex sets W leaving every outside vertex at most t-1
    neighbours outside W: the supports of J_t's generators."""
    nbrs = {v: set() for v in vertices}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    covers = []
    for mask in range(1 << len(vertices)):
        w = {v for i, v in enumerate(vertices) if mask >> i & 1}
        if all(v in w or len(nbrs[v] - w) < t for v in vertices):
            covers.append(frozenset(w))
    return _minimal(covers)


def edge_ideal_supports(vertices, edges, t: int) -> set[frozenset[str]]:
    """Supports of the generalized edge ideal: x with t of its neighbours."""
    nbrs = {v: [] for v in vertices}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    gens = {
        frozenset((x, *subset))
        for x in vertices
        for subset in combinations(nbrs[x], t)
    }
    return _minimal(gens)


def check_sweep(out: str) -> bool:
    payload = json.loads(out)
    cells = payload["cells"]
    return payload["tree"] is True and bool(cells) and all(
        c["match"] is True for c in cells
    )


def check_ideal_dual(out: str, vertices, edges) -> bool:
    payload = json.loads(out)
    return (
        _monomial_supports(payload["generators"]) == partial_covers(vertices, edges, 2)
        and _monomial_supports(payload["dual_generators"])
        == edge_ideal_supports(vertices, edges, 2)
    )


def tree_corpus() -> list[list[tuple[int, int]]]:
    """The fixed trees: vertex i of each is slot i of its vertex line."""
    rng = random.Random(TREE_CORPUS_SEED)
    return [random_tree(rng, TREE_VERTICES, TREE_MAX_DEGREE) for _ in range(TREE_COUNT)]


def tree_sweep(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for k, tree in enumerate(tree_corpus()):
        names = vertex_names(rng, TREE_VERTICES)
        edges = [(names[a], names[b]) for a, b in tree]
        path = workdir / f"tree{k}.graph"
        path.write_text(graph_text(names, edges, rng))
        commands.append(Command(("sweep", "--format", "json", str(path)), check_sweep))
        commands.append(Command(
            ("ideal", "--t", "2", "--dual", "--format", "json", str(path)),
            lambda out, names=names, edges=edges: check_ideal_dual(out, names, edges),
        ))
    return commands


# Witness workload ------------------------------------------------------


def check_witness(out: str) -> bool:
    payload = json.loads(out)
    return all(
        payload[flag] is True
        for flag in ("not_in_power", "colon_equals_prime", "annihilator_divides")
    )


def witness_power(seed: int, workdir: Path) -> list[Command]:
    """Fixed cells; the seed is not used."""
    return [
        Command(("witness", "--n", str(n), "--t", str(t), "--s", str(s),
                 "--format", "json"), check_witness)
        for n, t, s in WITNESS_CELLS
    ]


WORKLOADS = {
    "star_oracle": star_oracle,
    "tree_sweep": tree_sweep,
    "witness_power": witness_power,
}
