"""Tests of the benchmark's own generator, checks and failure counting.

    python3 -m pytest perfbench
"""

import random

import pytest

import run  # puts the checkout's src/ and perfbench/ on sys.path
import gen
import hostspeed

run.import_covertool()

from covertool.graphs import parse_graph  # noqa: E402


def _is_tree(n, edges):
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return len(edges) == n - 1


def test_random_tree_is_connected_with_bounded_degree():
    rng = random.Random(0)
    for _ in range(500):
        edges = gen.random_tree(rng, 7, 4)
        assert len(edges) == 6
        assert _is_tree(7, edges)
        assert max(sum(v in e for e in edges) for v in range(7)) <= 4


def test_prufer_decode_known_tree():
    # The star K_{1,4} centred at 0 has Prüfer sequence 0 0 0.
    assert sorted(tuple(sorted(e)) for e in gen.prufer_decode([0, 0, 0], 5)) == [
        (0, 1), (0, 2), (0, 3), (0, 4)
    ]
    with pytest.raises(ValueError):
        gen.prufer_decode([5, 0, 0], 5)


def test_relabelling_preserves_edge_set():
    rng = random.Random(0)
    for _ in range(50):
        tree = gen.random_tree(rng, 7, 4)
        names = gen.vertex_names(rng, 7)
        text = gen.graph_text(names, [(names[a], names[b]) for a, b in tree], rng)
        g = parse_graph(text)
        assert g.vertices == tuple(names)
        assert g.edges == {frozenset((names[a], names[b])) for a, b in tree}


def test_star_relabelling_keeps_centre_slot(tmp_path):
    commands = gen.star_oracle(3, tmp_path)
    for k, command in enumerate(commands):
        g = parse_graph((tmp_path / f"star{k}.graph").read_text())
        centre = g.vertices[gen.STAR_CENTRE_SLOTS[k]]
        assert g.degree(centre) == gen.STAR_LEAVES


def test_wrong_prime_set_counts_as_failure(tmp_path):
    names = ["c", "p", "q", "r"]
    right = gen.star_primes(names, 2, 2)
    wrong = right - {next(iter(right))}
    commands = [
        gen.star_command(tmp_path / "a.graph", names, 2, 2, 2, random.Random(0)),
        gen.star_command(tmp_path / "b.graph", names, 2, 2, 2, random.Random(0), wrong),
    ]
    results, scaled = run.run_batch(commands)
    assert len(scaled) == 2 and all(x > 0 for x in scaled)
    assert [code for _, code, _ in results] == [0, 0]
    assert run.failures(commands, results) == 1


def test_nonzero_exit_counts_as_failure(tmp_path):
    commands = [gen.Command(("ass", "--s", "1", str(tmp_path / "missing.graph")),
                            lambda out: True)]
    assert run.failures(commands, run.run_batch(commands)[0]) == 1


def test_tree_checks_accept_covertool_output(tmp_path):
    commands = gen.tree_sweep(5, tmp_path)[:6]
    assert run.failures(commands, run.run_batch(commands)[0]) == 0


def test_tree_dual_check_rejects_other_tree(tmp_path):
    command = gen.tree_sweep(5, tmp_path)[1]
    _, code, out = run.run_command(command.argv)
    assert code == 0 and command.check(out)
    g = parse_graph((tmp_path / "tree0.graph").read_text())
    centre, *leaves = g.vertices
    assert not gen.check_ideal_dual(out, g.vertices, [(centre, x) for x in leaves])


def test_inputs_depend_only_on_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    gen.tree_sweep(11, a)
    gen.tree_sweep(11, b)
    for path in a.iterdir():
        assert path.read_text() == (b / path.name).read_text()


def test_scale_uses_samples_taken_during_each_command():
    speed = hostspeed.SpeedSampler()
    speed.samples = [0.004, 0.004, 0.016]
    scaled = speed.scale([1.0, 2.0], [(0, 2), (3, 3)])
    nominal = hostspeed.NOMINAL_S
    assert scaled == pytest.approx([nominal / 0.004, 2.0 * nominal / 0.008])


def test_sampler_samples_while_open_and_reports_its_time():
    with hostspeed.SpeedSampler() as speed:
        _, code, _ = run.run_command(("witness", "--n", "6", "--t", "3", "--s", "3"), speed)
        deadline = run.perf_counter() + 3 * hostspeed.SAMPLE_EVERY_S
        while run.perf_counter() < deadline:
            pass
    assert code == 0
    assert speed.samples and speed.spent >= sum(speed.samples)
