"""End-to-end checks of the command-line interface.

Most tests drive main() in-process and assert on exit codes plus
captured output, so the full argument-parsing and rendering path is
exercised without spawning subprocesses; the few that need a process of
their own (a hash seed, a closed stdout) run `python -m covertool.cli`.
"""

import argparse
import ast
import functools
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import pytest
from conftest import LEADING_DASHES_END_OPTIONS
from hypothesis import given, settings
from hypothesis import strategies as st

from covertool import cli, hypercovers, monomials
from covertool.catalog import graph_corpus, hypergraph_corpus
from covertool.cli import main
from covertool.covers import star_generators
from covertool.graphs import graph_to_text, hypergraph_to_text
from covertool.monomials import MonomialPrime, sorted_primes
from covertool.record import replace

P4 = "vertices: x1 x2 x3 x4\nedge: x1 x2\nedge: x2 x3\nedge: x3 x4\n"
STAR3 = "vertices: z x1 x2 x3\nedge: z x1\nedge: z x2\nedge: z x3\n"
STAR4 = "vertices: z x1 x2 x3 x4\nedge: z x1\nedge: z x2\nedge: z x3\nedge: z x4\n"
C4 = "vertices: x1 x2 x3 x4\nedge: x1 x2\nedge: x2 x3\nedge: x3 x4\nedge: x1 x4\n"
C5 = (
    "vertices: x1 x2 x3 x4 x5\n"
    "edge: x1 x2\nedge: x2 x3\nedge: x3 x4\nedge: x4 x5\nedge: x1 x5\n"
)
H1 = "vertices: z x1 x2 x3\nedge: z x1 x2\nedge: z x1 x3\nedge: z x2 x3\n"
HYPER13 = "vertices: " + " ".join(f"v{i}" for i in range(13)) + "\nedge: v0 v1 v2\n"
UNIT_J9 = "J_9 of this graph is the unit ideal: no constraints (t exceeds all degrees)"
LEAVES7 = [f"x{i}" for i in range(1, 8)]
STAR7 = "vertices: z " + " ".join(LEAVES7) + "\n"
STAR7 += "".join(f"edge: z {x}\n" for x in LEAVES7)
STAR6 = "vertices: z " + " ".join(LEAVES7[:6]) + "\n"
STAR6 += "".join(f"edge: z {x}\n" for x in LEAVES7[:6])


def power_steps(capsys, *argv):
    """Run one command: (exit code, the `_power_step` calls it took, the
    `ideal_power` calls it made)."""
    with mock.patch.object(
        monomials, "_power_step", wraps=monomials._power_step
    ) as step, mock.patch.object(
        monomials, "ideal_power", wraps=monomials.ideal_power
    ) as power:
        code, _, _ = run(capsys, *argv)
    return code, step.call_count, power.call_count


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="input.graph"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdeal:
    def test_p4_t2(self, graph_file, capsys):
        code, out, _ = run(capsys, "ideal", "--t", "2", graph_file(P4))
        assert code == 0
        assert out == "x2, x3, x1*x4\n"

    def test_star3_t1(self, graph_file, capsys):
        code, out, _ = run(capsys, "ideal", "--t", "1", graph_file(STAR3))
        assert code == 0
        assert out == "z, x1*x2*x3\n"

    def test_unit_ideal_warns_but_succeeds(self, graph_file, capsys):
        code, out, _ = run(capsys, "ideal", "--t", "3", graph_file(P4))
        assert code == 0
        assert "unit ideal" in out

    def test_dual(self, graph_file, capsys):
        code, out, _ = run(capsys, "ideal", "--t", "2", "--dual", graph_file(P4))
        assert code == 0
        assert out.splitlines()[1] == "dual: x1*x2*x3, x2*x3*x4"

    def test_dual_of_unit_fails(self, graph_file, capsys):
        code, _, err = run(capsys, "ideal", "--t", "3", "--dual", graph_file(P4))
        assert code == 1
        assert "dual" in err

    def test_hypergraph_input(self, graph_file, capsys):
        code, out, _ = run(capsys, "ideal", graph_file(H1))
        assert code == 0
        assert out == "z, x1*x2, x1*x3, x2*x3\n"

    def test_hypergraph_rejects_t2(self, graph_file, capsys):
        code, _, err = run(capsys, "ideal", "--t", "2", graph_file(H1))
        assert code == 1
        assert "no t parameter" in err


class TestAss:
    def test_p4_predict_match(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "ass", "--t", "2", "--s", "1", "--predict", graph_file(P4)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "direct: <x1, x2, x3>, <x2, x3, x4>"
        assert lines[-1] == "MATCH"

    def test_star3_squared_predict(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "ass", "--t", "2", "--s", "2", "--predict", graph_file(STAR3)
        )
        assert code == 0
        assert out.splitlines()[0].count("<") == 4
        assert "MATCH" in out

    def test_non_tree_predict_rejected(self, graph_file, capsys):
        code, _, err = run(
            capsys, "ass", "--t", "2", "--s", "1", "--predict", graph_file(C4)
        )
        assert code == 1
        assert "only for trees" in err

    @pytest.mark.parametrize("mode", ["direct", "both"])
    def test_non_tree_predict_refused_before_oracle_work(
        self, graph_file, capsys, monkeypatch, mode
    ):
        # The checks before the oracle come first (t, s, the unit ideal),
        # then the refusal, and no power of J_1(C_5) is read at all.
        from covertool import associated

        calls = []
        for module in (cli, associated):
            oracle = module.power_primes

            def spy(ideal, *args, oracle=oracle):
                calls.append(ideal)
                return oracle(ideal, *args)

            monkeypatch.setattr(module, "power_primes", spy)
        argv = ["ass", "--t", "1", "--s", "3", "--mode", mode, "--predict"]
        code, out, err = run(capsys, *argv, graph_file(C5))
        assert (code, out) == (1, "")
        assert err == "error: closed form proven only for trees\n"
        assert calls == []

    def test_both_modes_agree(self, graph_file, capsys):
        code, out, _ = run(
            capsys,
            "ass", "--t", "2", "--s", "2", "--mode", "both", graph_file(STAR3),
        )
        assert code == 0
        assert "modes agree" in out

    def test_hypergraph_direct(self, graph_file, capsys):
        code, out, _ = run(capsys, "ass", "--s", "1", graph_file(H1))
        assert code == 0
        assert out.startswith("direct: ")

    def test_hypergraph_localized_rejected(self, graph_file, capsys):
        code, _, err = run(
            capsys, "ass", "--s", "1", "--mode", "localized", graph_file(H1)
        )
        assert code == 1
        assert "graph file" in err

    def test_hypergraph_predict_rejected(self, graph_file, capsys):
        code, out, err = run(capsys, "ass", "--s", "1", "--predict", graph_file(H1))
        assert (code, out) == (1, "")
        assert "closed form proven only for trees" in err

    def test_hypergraph_rejects_t3(self, graph_file, capsys):
        code, out, err = run(capsys, "ass", "--t", "3", "--s", "2", graph_file(H1))
        assert code == 1
        assert out == ""
        assert "no t parameter" in err

    @pytest.mark.parametrize("s", ["0", "-1"])
    @pytest.mark.parametrize("text", [STAR3, H1], ids=["graph", "hypergraph"])
    def test_nonpositive_power_rejected(self, graph_file, capsys, text, s):
        code, out, err = run(capsys, "ass", "--s", s, graph_file(text))
        assert code == 1
        assert out == ""
        assert err == f"error: s must be a positive integer, got {s}\n"

    def test_power_cap(self, graph_file, capsys):
        code, _, err = run(capsys, "ass", "--t", "1", "--s", "7", graph_file(STAR3))
        assert code == 1
        assert "cap exceeded" in err

    def test_power_cap_override(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "ass", "--t", "1", "--s", "7", "--force", graph_file(STAR3)
        )
        assert code == 0
        assert out.count("<") == 3


    def test_single_power_inside_the_limit_builds_none(self, graph_file, capsys):
        # J_3 of K_{1,7} at s = 3: the walk's gate admits the box of J^3,
        # 4^8 points; the localized pass reads smaller boxes still.  H1
        # at s = 2: 3^4.
        assert monomials._walk_box(star_generators(7, 3), 3) is not None
        star, hyper = graph_file(STAR7), graph_file(H1, "h1.graph")
        for argv in (
            ["ass", "--t", "3", "--s", "3", star],
            ["ass", "--t", "3", "--s", "3", "--mode", "both", star],
            ["ass", "--s", "2", hyper],
        ):
            assert power_steps(capsys, *argv) == (0, 0, 0), argv

    def test_single_power_past_the_limit_is_built(self, graph_file, capsys):
        # J_2 of K_{1,6} at s = 5: the box of J^5, 6^7 points, lies past
        # the walk's gate.
        assert monomials._walk_box(star_generators(6, 2), 5) is None
        argv = ["ass", "--t", "2", "--s", "5", "--predict", graph_file(STAR6)]
        code, steps, _ = power_steps(capsys, *argv)
        assert (code, steps) == (0, 4)


class TestStability:
    def test_star4_certified(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "stability", "--t", "2", "--smax", "4", graph_file(STAR4)
        )
        assert code == 0
        assert "persistence: OK" in out
        assert "astab: 3 (certified)" in out

    def test_tree_t1(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "stability", "--t", "1", "--smax", "3", graph_file(P4)
        )
        assert code == 0
        assert "astab: 1 (certified)" in out

    def test_c5_short_sweep_undetermined(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "stability", "--t", "2", "--smax", "3", graph_file(C5)
        )
        assert code == 0
        assert "astab: not determined up to s_max=3" in out

    def test_c5_longer_sweep_empirical(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "stability", "--t", "2", "--smax", "4", graph_file(C5)
        )
        assert code == 0
        assert "astab: 3 (empirical, uncertified beyond s_max=4)" in out

    def test_unit_range_rejected(self, graph_file, capsys):
        code, _, err = run(
            capsys, "stability", "--t", "3", "--smax", "2", graph_file(P4)
        )
        assert code == 1
        assert "no constraints" in err

    def test_hypergraph_rejects_t3(self, graph_file, capsys):
        code, out, err = run(
            capsys, "stability", "--t", "3", "--smax", "2", graph_file(H1)
        )
        assert code == 1
        assert out == ""
        assert "no t parameter" in err

    def test_hypergraph_t1(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "stability", "--t", "1", "--smax", "3", graph_file(H1)
        )
        assert code == 0
        assert "persistence: OK" in out


class TestWitness:
    def test_base_case(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "3", "--t", "2", "--s", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("T = x1*x2*x3  (s0=2, e=0)")
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_z_padding(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "3", "--t", "2", "--s", "3")
        assert code == 0
        assert out.splitlines()[0].startswith("T = z*x1*x2*x3  (s0=2, e=1)")

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--t", "2", "--s", "1")
        assert code == 0
        assert "[empty word boundary]" in out
        assert "T = 1 " in out

    def test_criterion_unmet(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "4", "--t", "2", "--s", "1")
        assert code == 1
        assert "s(t-1) >= n-1" in err

    def test_membership_builds_no_power_inside_the_limit(self, capsys):
        # The probes T and x_i*T span a box of 3 * 4^7 points.
        argv = ["witness", "--n", "7", "--t", "3", "--s", "4"]
        assert power_steps(capsys, *argv) == (0, 0, 0)

    def test_membership_past_the_limit_builds_no_power(self, capsys, monkeypatch):
        # T = (x1...x7)^5: the probes span 2 * 7^7 points, past the
        # staircase limit, and membership asks neither gate.
        def gate(*args):
            raise AssertionError(f"a gate was asked for {args}")

        monkeypatch.setattr(monomials, "_walk_box", gate)
        monkeypatch.setattr(monomials, "_box", gate)
        argv = ["witness", "--n", "7", "--t", "2", "--s", "6"]
        code, steps, _ = power_steps(capsys, *argv)
        assert (code, steps) == (0, 0)


class TestGap:
    def test_m1_equality(self, capsys):
        code, out, _ = run(capsys, "gap", "--m", "1")
        assert code == 0
        assert "H_1: chi=2, astab=2" in out
        assert "HOLDS (equality)" in out
        assert "baseline chi-1 <= astab: HOLDS" in out

    def test_m2(self, capsys):
        code, out, _ = run(capsys, "gap", "--m", "2")
        assert code == 0
        assert "H_2: chi=2, astab=3" in out

    def test_short_sweep_is_not_a_mismatch(self, capsys):
        # s_max <= astab cannot show a tail of length two; nothing is refuted.
        for argv, smax in (
            (("--m", "2", "--smax", "3"), 3),
            (("--m", "4", "--smax", "2", "--force"), 2),
        ):
            code, out, _ = run(capsys, "gap", *argv)
            assert code == 0, argv
            assert "MISMATCH" not in out
            assert out.splitlines()[0].endswith(
                f"(oracle tail: not determined up to s_max={smax})"
            )

    def test_cap(self, capsys):
        code, _, err = run(capsys, "gap", "--m", "9")
        assert code == 1
        assert err.strip() == "error: cap exceeded: m=9 (override with --force)"


class TestSweep:
    def test_tree_sweep_matches(self, graph_file, capsys):
        code, out, _ = run(capsys, "sweep", "--t", "2", graph_file(P4))
        assert code == 0
        assert "MISMATCH" not in out
        assert out.splitlines()[-1] == "result: all cells consistent"

    def test_non_tree_sweep_has_no_prediction(self, graph_file, capsys):
        code, out, _ = run(capsys, "sweep", "--t", "2", "--smax", "2", graph_file(C4))
        assert code == 0
        assert "predicted" not in out

    def test_t_out_of_range(self, graph_file, capsys):
        code, _, err = run(capsys, "sweep", "--t", "5", graph_file(P4))
        assert code == 1
        assert "exceeds the maximum degree" in err

    def test_hypergraph_rejected(self, graph_file, capsys):
        code, _, err = run(capsys, "sweep", graph_file(H1))
        assert code == 1
        assert "graph file" in err

    def test_edgeless_graph_rejected(self, graph_file, capsys):
        code, out, err = run(capsys, "sweep", graph_file("vertices: a b\n"))
        assert (code, out) == (1, "")
        assert "no edges" in err

    def test_nonpositive_smax_rejected(self, graph_file, capsys):
        code, out, err = run(capsys, "sweep", "--smax", "0", graph_file(P4))
        assert code == 1
        assert out == ""
        assert "s_max must be a positive integer" in err

    def test_caps_checked_before_oracle_work(self, graph_file, capsys, monkeypatch):
        # On K_{1,7} the t=1 cells are cheap and within the caps, but t=2
        # needs smax = astab + 1 = 7 > 6: the whole grid must be refused
        # before any power is decomposed.
        from covertool import associated

        calls = []
        for name in ("power_primes", "associated_primes_of_powers"):
            oracle = getattr(associated, name)

            def spy(ideal, *args, oracle=oracle):
                calls.append(ideal)
                return oracle(ideal, *args)

            monkeypatch.setattr(associated, name, spy)
        code, out, err = run(capsys, "sweep", graph_file(STAR7))
        assert code == 1
        assert out == ""
        assert "smax=7 > 6" in err
        assert calls == []

    def test_past_limit_chain_caches_no_power(self, graph_file, capsys):
        # J_2 of K_{1,7} walked to s = 7: the box of J^7, 8^8 points, lies
        # past the walk's gate, so each power is stepped from the one
        # before, and none is built through ideal_power.
        assert monomials._walk_box(star_generators(7, 2), 7) is None
        path = graph_file(STAR7)
        for argv in (["sweep", "--t", "2"], ["stability", "--t", "2", "--smax", "7"]):
            assert power_steps(capsys, *argv, "--force", path) == (0, 6, 0), argv

    def test_closed_stdout_exits_cleanly(self, graph_file):
        # The JSON sweep of K_{1,6} (93,145 bytes) outgrows a 64 KiB pipe,
        # so a reader that stops after one line, as `| head -1` does,
        # closes the pipe while the command is still writing.
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "covertool.cli", "sweep", "--format", "json",
             graph_file(STAR6)],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")


def test_past_limit_commands_never_call_ideal_power(graph_file, capsys):
    # Each command reads a power past the staircase limit.  The engine
    # holds such powers itself, so ideal_power is only a library memo;
    # the digests are those of the output when these commands still
    # built their powers through it.
    star6, star7 = graph_file(STAR6), graph_file(STAR7, "star7.graph")
    expected = [
        (["ass", "--t", "2", "--s", "5", "--predict", star6], "28ad3b1c879224d4"),
        (
            ["ass", "--t", "2", "--s", "5", "--predict", "--mode", "both", star6],
            "f39332958e1fafc0",
        ),
        (["witness", "--n", "7", "--t", "2", "--s", "6"], "8e64d80d1bc23be6"),
        (["sweep", "--t", "2", "--force", star7], "67ae2529c5d70fba"),
    ]
    with mock.patch.object(
        monomials, "ideal_power", side_effect=AssertionError("ideal_power called")
    ):
        for argv, digest in expected:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv


# The covertool modules that `import covertool.cli` loads, the one
# start-up allowlist; CI's Start-up step runs the test below by node id.
# `catalog`, `loop` and any later module stay off every command's
# start-up unless this list changes.
START_UP_MODULES = [
    "covertool", "covertool.associated", "covertool.cli", "covertool.covers",
    "covertool.graphs", "covertool.hypercovers", "covertool.monomials",
    "covertool.record", "covertool.staircase",
]


def test_only_past_limit_cells_load_the_loop(graph_file):
    # `_decompose` imports the incremental loop in its past-limit branch
    # alone: the CLI's import leaves it out, and Ass of J_2(K_{1,6})^5,
    # whose box of 6^7 points lies past the walk's gate and `_decompose`'s,
    # loads it.
    J = star_generators(6, 2)
    classes, reps = monomials._power(J, 5)
    assert monomials._walk_box(J, 5) is None
    assert monomials._box(monomials._radices(reps, classes)) is None
    star6 = graph_file(STAR6)
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys; from covertool import cli; "
        "before = sorted(m for m in sys.modules if m.startswith('covertool')); "
        f"code = cli.main(['ass', '--t', '2', '--s', '5', {star6!r}]); "
        "print(before, code, 'covertool.loop' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-1] == f"{START_UP_MODULES} 0 True"


class TestErrorsAndFormats:
    def test_parse_error_carries_line_number(self, graph_file, capsys):
        code, _, err = run(
            capsys, "ideal", graph_file("vertices: a b\nedge: a\n")
        )
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ideal", "/nonexistent/input.graph")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_byte_order_mark_is_read_past(self, tmp_path, capsys, fmt):
        plain, marked = tmp_path / "p4.graph", tmp_path / "p4-bom.graph"
        plain.write_text(P4, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + P4.encode())
        argv = ["ideal", "--t", "2", "--dual", "--format", fmt]
        code, out, err = run(capsys, *argv, str(marked))
        assert (code, out, err) == (0, *run(capsys, *argv, str(plain))[1:])

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "utf16.graph"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "ideal", "--t", "2", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_undecodable_byte_is_placed_by_its_file_offset(self, tmp_path, capsys):
        # 0xe9 is byte 29 of the plain file and byte 32 of the marked one.
        text = b"vertices: a b\nedge: a b\n# caf\xe9\n"
        for data, offset in ((text, 29), (b"\xef\xbb\xbf" + text, 32)):
            path = tmp_path / f"at{offset}.graph"
            path.write_bytes(data)
            code, out, err = run(capsys, "ideal", str(path))
            assert (code, out) == (1, "")
            assert err == (
                f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9 "
                f"in position {offset}: invalid continuation byte\n"
            )

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_variable_cap(self, graph_file, capsys):
        labels = [f"v{i}" for i in range(1, 14)]
        text = "vertices: " + " ".join(labels) + "\n"
        text += "".join(
            f"edge: {a} {b}\n" for a, b in zip(labels, labels[1:])
        )
        path = graph_file(text)
        code, _, err = run(capsys, "ideal", path)
        assert code == 1
        assert "13 variables" in err
        code, out, _ = run(capsys, "ideal", "--force", path)
        assert code == 0
        assert out.strip() and "error" not in out

    # An input with two faults: the one reported is fixed by the order
    # of the checks that README gives.
    @pytest.mark.parametrize(
        "argv, err",
        [
            ("ass --t 9 --s 0 star3", "s must be a positive integer, got 0"),
            ("stability --t 9 --smax 0 star3", UNIT_J9),
            ("ass --t 9 --s 1 --predict c5", UNIT_J9),
            ("ass --t 2 --s 1 --predict h1", "closed form proven only for trees"),
            (
                "ass --t 2 --s 1 --mode localized --predict h1",
                "localized mode needs a graph file",
            ),
            (
                "ass --t 2 --s 0 h1",
                "hypergraph cover ideals have no t parameter; use --t 1 or omit it",
            ),
            ("sweep --t 9 --smax 0 star3", "t=9 exceeds the maximum degree 3"),
            ("witness --n 12 --t 0 --s 7", "cap exceeded: 13 variables > 12"),
            ("gap --m 4 --smax 7", "cap exceeded: smax=7 > 6"),
            ("sweep h13", "cap exceeded: 13 variables > 12"),
            ("ass --t 1 --s 0 --mode localized h1", "localized mode needs a graph file"),
            ("ass --t 1 --s 0 --predict h1", "closed form proven only for trees"),
            ("sweep --t 9 --smax 9 star3", "t=9 exceeds the maximum degree 3"),
            ("sweep --smax 9 h1", "sweep needs a graph file"),
        ],
    )
    def test_first_of_two_faults_is_reported(self, graph_file, capsys, argv, err):
        inputs = {"star3": STAR3, "c5": C5, "h1": H1, "h13": HYPER13}
        argv = [graph_file(inputs[a]) if a in inputs else a for a in argv.split()]
        if err.startswith("cap exceeded"):
            err += " (override with --force)"
        assert run(capsys, *argv) == (1, "", f"error: {err}\n")

    def test_json_shape_and_determinism(self, graph_file, capsys):
        path = graph_file(STAR3)
        argv = ["ass", "--t", "2", "--s", "2", "--predict", "--format", "json", path]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(first)
        assert payload["schema"] == 1
        assert payload["match"] is True
        assert payload["ambient"] == ["z", "x1", "x2", "x3"]
        assert ["z", "x1", "x2", "x3"] in payload["direct"]
        code, second, _ = run(capsys, *argv)
        assert first == second

    def test_json_ideal(self, graph_file, capsys):
        code, out, _ = run(
            capsys, "ideal", "--t", "2", "--format", "json", graph_file(P4)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["generators"] == ["x2", "x3", "x1*x4"]
        assert payload["unit_ideal"] is False

    @pytest.mark.parametrize("edge", ["a b", "a b c"], ids=["graph", "hypergraph"])
    def test_duplicate_vertex_label(self, graph_file, capsys, edge):
        path = graph_file(f"vertices: a b c a\nedge: {edge}\n")
        code, out, err = run(capsys, "ideal", path)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: duplicate vertex label 'a'\n"

    def test_non_simple_error_ignores_hash_seed(self, graph_file):
        # Edge order inside a frozenset follows the string hash seed; the
        # error must name the same pair of edges in every process.
        path = graph_file("vertices: a b c\nedge: a b c\nedge: a b\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        errors = set()
        for seed in range(8):
            result = subprocess.run(
                [sys.executable, "-m", "covertool.cli", "ideal", path],
                env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=str(seed)),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 1
            errors.add(result.stderr)
        assert len(errors) == 1
        assert "edge ['a', 'b'] is comparable with ['a', 'b', 'c']" in errors.pop()

    def test_json_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "witness", "--n", "3", "--t", "2", "--s", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == "x1*x2*x3"
        assert payload["not_in_power"] and payload["colon_equals_prime"]
        assert payload["annihilator_divides"]


def _stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# Quotes, backslashes, control characters, JSON punctuation and
# non-ASCII, mixed with anything else `st.text` draws.
_JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f[]{},: aü名\U0001f600'))
_JSON_TEXT |= st.text(max_size=6)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64))
    | _JSON_TEXT
)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)
ODD_LABELS = ['a"b', "c\\d", "[e]", "f,g", "ü", "名"]


class TestJsonWriter:
    """`cli._json` writes the bytes of `json.dumps(indent=2, sort_keys=True)`."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_PAYLOADS)
    def test_matches_stdlib(self, payload):
        assert cli._json(payload) == _stdlib_json(payload)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_JSON_PAYLOADS, max_size=3)
        | st.dictionaries(_JSON_TEXT, _JSON_PAYLOADS, max_size=3)
    )
    def test_shared_container_at_several_depths(self, shared):
        # One object twice at one depth and once at three others: each
        # depth must be written with its own indentation.
        payload = {"a": shared, "b": [shared, shared], "c": [[shared], {"d": shared}]}
        assert cli._json(payload) == _stdlib_json(payload)

    def test_true_is_not_one(self):
        payload = [True, 1, False, 0, None, [True], [1], {"x": 1, "y": True}]
        assert cli._json(payload) == _stdlib_json(payload)
        assert cli._json([1, True]) == "[\n  1,\n  true\n]"

    def test_empty_containers(self):
        payload = {"": [], "a": {}, "b": (), "c": [[], {}, ()]}
        assert cli._json(payload) == _stdlib_json(payload)
        assert cli._json([]) == "[]" and cli._json({}) == "{}"

    @pytest.mark.parametrize(
        "payload",
        [1.5, {"a": 0.0}, {1, 2}, [frozenset()], b"x", {"a": [b"x"]}, {1: "a"},
         {"a": {None: 1}}, ["a", 2.0], object()],
        ids=["float", "nested-float", "set", "frozenset", "bytes", "nested-bytes",
             "int-key", "none-key", "str-then-float", "object"],
    )
    def test_other_types_raise(self, payload):
        # json.dumps would write the float, and the keys 1 and None as
        # strings; a payload never holds these, so the writer refuses them.
        with pytest.raises(TypeError):
            cli._json(payload)

    def test_memo_is_per_call(self):
        shared = ["x"]
        first = cli._json({"a": shared})
        shared.append("y")
        assert cli._json({"a": shared}) == _stdlib_json({"a": shared}) != first

    def test_labels_are_shared_within_a_command(self):
        p, q, r = (MonomialPrime(frozenset(s)) for s in ({0}, {0, 1}, {2}))
        ambient = ("a", "b", "c")
        labels = {}
        first = cli._primes_json(frozenset({p, q}), ambient, labels)
        again = cli._primes_json(frozenset([q, p]), ambient, labels)
        other = cli._primes_json(frozenset({q, r}), ambient, labels)
        assert first == [["a"], ["a", "b"]]
        assert again is first
        assert other == [["c"], ["a", "b"]]
        assert other[1] is first[1]
        fresh = cli._primes_json(frozenset({p, q}), ambient, {})
        assert fresh == first and fresh is not first

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["ideal", "--t", "2", "--dual"],
            ["ass", "--t", "2", "--s", "2", "--predict"],
            ["stability", "--t", "2", "--smax", "3"],
        ],
        ids=["sweep", "ideal", "ass", "stability"],
    )
    def test_odd_labels_print_stdlib_bytes(self, graph_file, capsys, argv):
        text = "vertices: " + " ".join(ODD_LABELS) + "\n"
        text += "".join(f"edge: {ODD_LABELS[a]} {ODD_LABELS[b]}\n"
                        for a, b in ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5)))
        with mock.patch.object(json, "dumps", side_effect=AssertionError("json.dumps")):
            code, out, _ = run(capsys, *argv, "--format", "json", graph_file(text))
        assert code == 0
        payload = json.loads(out)
        assert payload["ambient"] == ODD_LABELS
        assert out == _stdlib_json(payload) + "\n"


def _joined(label_lists) -> str:
    return ", ".join("<" + ", ".join(labels) + ">" for labels in label_lists)


def test_text_and_json_report_the_same_answer(graph_file, capsys):
    # Each text line that lists primes is its JSON label lists joined;
    # a `sweep` line gives each cell's oracle count and verdict.
    def both(*argv):
        code, out, err = run(capsys, *argv)
        json_code, json_out, json_err = run(capsys, *argv, "--format", "json")
        assert (json_code, json_err) == (code, err), argv
        return out.splitlines(), json.loads(json_out) if code != 1 else None

    def check_ass(*argv):
        lines, payload = both("ass", *argv)
        if payload is not None:
            keys = [k for k in ("direct", "localized", "predicted") if k in payload]
            listed = [line for line in lines if line.split(":")[0] in keys]
            assert listed == [f"{k}: {_joined(payload[k])}" for k in keys], argv

    def check_stability(*argv):
        lines, payload = both("stability", *argv)
        if payload is not None:
            listed = [line for line in lines if line.startswith("s=")]
            assert listed == [
                f"s={c['s']}: {_joined(c['primes'])}" for c in payload["per_power"]
            ], argv

    for name, g in graph_corpus():
        path = graph_file(graph_to_text(g), f"{name}.graph")
        for t in map(str, range(1, g.max_degree() + 1)):
            check_ass("--t", t, "--s", "2", "--mode", "both", path)
            if g.is_tree():
                check_ass("--t", t, "--s", "2", "--mode", "both", "--predict", path)
            check_stability("--t", t, "--smax", "3", path)
            lines, payload = both("sweep", "--t", t, "--smax", "3", path)
            if payload is not None:
                assert len(lines) == len(payload["cells"]) + 1, name
                for line, cell in zip(lines, payload["cells"]):
                    words = line.split()
                    assert words[:3] == [
                        f"t={cell['t']}", f"s={cell['s']}", f"|Ass|={len(cell['oracle'])}"
                    ], line
                    assert ("MATCH" in words) == cell.get("match", False), line
    for name, h in hypergraph_corpus():
        path = graph_file(hypergraph_to_text(h), f"{name}.graph")
        check_ass("--s", "2", path)
        check_stability("--smax", "3", path)


def test_results_are_printed_in_one_place():
    # A handler returns its payload, lines and exit code; `_run` prints
    # them through `_emit`, and only `_emit` reads the format.
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def calls(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    handlers = [f for name, f in functions.items() if name.startswith("cmd_")]
    assert len(handlers) == len(cli._SUBCOMMANDS)
    assert not [
        f.name for f in handlers
        if any(calls(n, "_emit") or calls(n, "print") for n in ast.walk(f))
    ]
    emits = [n for n in ast.walk(tree) if calls(n, "_emit")]
    assert len(emits) == 1 and emits[0] in set(ast.walk(functions["_run"]))
    readers = [
        name for name, f in functions.items()
        for n in ast.walk(f)
        if isinstance(n, ast.Attribute) and n.attr == "format"
        and getattr(n.value, "id", None) == "args"
    ]
    assert readers == ["_emit"]


def _outcome(argv, capsys, run_main=main):
    try:
        code = run_main(argv)
    except SystemExit as exc:  # help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _full_parser_main(argv):
    """`main` as it runs with the full six-subcommand parser alone."""
    return cli._run(cli._build_parser().parse_args(argv))


def _subcommands(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


_OPTIONS = {
    name: [a for a in (*arguments, *cli._COMMON) if a[0].startswith("-")]
    for name, (_, _, arguments) in cli._SUBCOMMANDS.items()
}
_FILES = {
    name: sum(1 for flag, _ in arguments if not flag.startswith("-"))
    for name, (_, _, arguments) in cli._SUBCOMMANDS.items()
}
# Values int() accepts as they are, none of which starts with `-`.
_INTS = ("0", "1", "2", "3", "7", "12", "+2", " 3", "007", "1_0")
_ODD_TOKENS = (
    *sorted({flag for options in _OPTIONS.values() for flag, _ in options}),
    "-h", "--help", "--", "-", "-1", "-5", "-1_0", "-5 ",
    "--t=2", "--s=1", "--format=json",
    "--pred", "--sm", "--for", "--fo", "--mo", "--d", "--bogus",
    "text", "json", "xml", "direct", "localized", "both", "x", "1.5", "",
    "p4.graph", "extra", "sweep", "a=b",
)


def _command_line(rng):
    """(argv, well_formed): a command line built from one subcommand's
    own options with valid values, every required option and as many
    files as it takes, then, half the time, broken by odd tokens put
    anywhere or in place of any token but the first."""
    name = rng.choice(list(cli._SUBCOMMANDS))
    chunks = [["p4.graph"] for _ in range(_FILES[name])]
    for flag, spec in _OPTIONS[name]:
        for _ in range(rng.randint(1 if spec.get("required") else 0, 2)):
            if "action" in spec:
                chunks.append([flag])
            else:
                chunks.append([flag, rng.choice(spec.get("choices", _INTS))])
    rng.shuffle(chunks)
    argv = [name, *(token for chunk in chunks for token in chunk)]
    odd = rng.choice((0, 0, 0, 1, 2, 3))
    for _ in range(odd):
        token = rng.choice(_ODD_TOKENS)
        if rng.random() < 0.5 and len(argv) > 1:
            argv[rng.randrange(1, len(argv))] = token
        else:
            argv.insert(rng.randint(0, len(argv)), token)
    return argv, odd == 0


@functools.cache
def _full_parser():
    return cli._build_parser()


class TestLazyParser:
    """`main` reads a well-formed command line off the subcommand table
    and builds the full parser only for anything else; its output must
    equal the full parser's on help, on every usage error and at the
    edges of argparse (abbreviations, `--`, `=`, repeats)."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("", 2),
            ("-h", 0),
            ("--help", 0),
            *((f"{name} -h", 0) for name in cli._SUBCOMMANDS),
            ("frobnicate p4.graph", 2),
            ("swee p4.graph", 2),
            # The lazy parser declines `--`, so both follow argparse.
            ("-- sweep p4.graph", 0 if LEADING_DASHES_END_OPTIONS else 2),
            ("ideal --t x p4.graph", 2),
            ("ass --s 1 --format xml p4.graph", 2),
            ("ass p4.graph", 2),
            ("witness --n 3 --t 2", 2),
            ("ideal missing.graph", 1),
            ("ideal p4.graph extra", 2),
            ("gap --m 1 extra", 2),
            ("sweep --t 1 p4.graph", 0),
            ("sweep --bogus p4.graph", 2),
            ("sweep p4.graph extra", 2),
            ("ideal -- p4.graph", 0),
            ("sweep p4.graph -h", 0),
            ("sweep -h extra", 0),
            ("ass --pred --s 1 p4.graph", 0),
            ("ass --s=1 p4.graph", 0),
            ("witness --n 3 --t 2 --s 2 -- extra", 2),
            ("stability --smax 2 p4.graph sweep", 2),
            ("ideal --t 2 --t 3 p4.graph", 0),
        ],
    )
    def test_same_output_as_the_full_parser(
        self, argv, code, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p4.graph").write_text(P4)
        lazy = _outcome(argv.split(), capsys)
        assert lazy[0] == code
        assert _outcome(argv.split(), capsys, _full_parser_main) == lazy

    def test_only_a_declined_command_builds_a_parser(self, monkeypatch, capsys):
        names = list(cli._SUBCOMMANDS)
        assert names == ["ideal", "ass", "stability", "witness", "gap", "sweep"]
        assert list(_subcommands(cli._build_parser())) == names
        built = []
        build = cli._build_parser

        def spy():
            built.append(True)
            return build()

        monkeypatch.setattr(cli, "_build_parser", spy)
        assert main(["witness", "--n", "3", "--t", "2", "--s", "2"]) == 0
        assert built == []
        for argv in (["ideal", "p4.graph", "extra"], ["swee"], ["gap", "-h"]):
            built.clear()
            with pytest.raises(SystemExit):
                main(argv)
            assert built == [True]
        capsys.readouterr()

    def test_parsers_built_per_command_and_none_kept(self, monkeypatch, capsys):
        made = []
        init = argparse.ArgumentParser.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        assert main(["witness", "--n", "3", "--t", "2", "--s", "2"]) == 0
        assert made == []
        with pytest.raises(SystemExit):
            main(["ideal", "p4.graph", "extra"])
        # The full parser and its six subparsers.
        assert len(made) == 7
        gc.collect()
        assert all(ref() is None for ref in made)
        capsys.readouterr()

    # Ten command lines from each seed, 5,000 in all.
    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_plain_reading_is_the_full_parsers(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            argv, well_formed = _command_line(rng)
            plain = cli._parse_plain(argv)
            if plain is None:
                assert not well_formed, argv
                continue
            try:
                full = _full_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"the full parser rejects {argv}")
            assert vars(plain) == vars(full), argv


def _drop_first_prime(report):
    kept = sorted_primes(report.primes)[1:]
    return replace(report, primes=frozenset(kept))


class TestIntegrityFailures:
    """Each exit-3 path, forced by falsifying the value its check compares
    against; the output must name the failing cell."""

    def test_ass_prediction_mismatch(self, graph_file, capsys, monkeypatch):
        predict = cli.predict_ass_tree
        monkeypatch.setattr(
            cli, "predict_ass_tree", lambda *a: _drop_first_prime(predict(*a))
        )
        code, out, _ = run(
            capsys, "ass", "--t", "2", "--s", "1", "--predict", graph_file(P4)
        )
        assert code == 3
        assert out.splitlines()[-1] == "MISMATCH: prediction differs at t=2 s=1"

    def test_ass_modes_disagree(self, graph_file, capsys, monkeypatch):
        ass = cli.ass_of_power

        def broken(g, t, s, mode):
            report = ass(g, t, s, mode)
            return _drop_first_prime(report) if mode == "localized" else report

        monkeypatch.setattr(cli, "ass_of_power", broken)
        code, out, _ = run(
            capsys,
            "ass", "--t", "2", "--s", "2", "--mode", "both", graph_file(STAR3),
        )
        assert code == 3
        assert out.splitlines()[-1] == "MISMATCH: modes disagree at t=2 s=2"

    def test_sweep_mismatch_lists_differing_primes(
        self, graph_file, capsys, monkeypatch
    ):
        predict = cli.predict_ass_tree_powers
        monkeypatch.setattr(
            cli,
            "predict_ass_tree_powers",
            lambda *a: [frozenset(sorted_primes(p)[1:]) for p in predict(*a)],
        )
        code, out, _ = run(capsys, "sweep", "--t", "2", graph_file(P4))
        assert code == 3
        assert out.splitlines() == [
            "t=2 s=1 |Ass|=2 predicted=1 MISMATCH "
            "oracle-only: <x1, x2, x3>; predicted-only: none",
            "t=2 s=2 |Ass|=2 predicted=1 MISMATCH "
            "oracle-only: <x1, x2, x3>; predicted-only: none",
            "result: MISMATCH found",
        ]
        code, out, _ = run(
            capsys, "sweep", "--t", "2", "--format", "json", graph_file(P4)
        )
        assert code == 3
        for cell in json.loads(out)["cells"]:
            assert cell["match"] is False
            assert cell["predicted"] == cell["oracle"][1:]

    def test_stability_astab_mismatch(self, graph_file, capsys, monkeypatch):
        astab = cli.astab_tree
        monkeypatch.setattr(cli, "astab_tree", lambda g, t: astab(g, t) + 1)
        code, out, _ = run(
            capsys, "stability", "--t", "2", "--smax", "4", graph_file(STAR4)
        )
        assert code == 3
        assert out.splitlines()[-1] == (
            "MISMATCH at t=2: empirical tail starts at s=3, formula says s=4"
        )

    def test_stability_persistence_violated(self, graph_file, capsys, monkeypatch):
        check = cli.empirical_astab

        def broken(ideal, s_max):
            report = check(ideal, s_max)
            return replace(
                report, persistence_ok=False, first_violation=1
            )

        monkeypatch.setattr(cli, "empirical_astab", broken)
        code, out, _ = run(
            capsys, "stability", "--t", "2", "--smax", "3", graph_file(STAR4)
        )
        assert code == 3
        assert (
            "persistence: VIOLATED at t=2 s=1 (Ass^1 not within the next power)"
            in out.splitlines()
        )

    def test_stability_missing_tail_past_astab(
        self, graph_file, capsys, monkeypatch
    ):
        # The last power gains a prime: no tail shows up to s_max = 4,
        # past the proven astab = 3, while persistence still holds.
        check = cli.empirical_astab

        def broken(ideal, s_max):
            report = check(ideal, s_max)
            *head, last = report.per_power
            gained = last | {MonomialPrime(frozenset({1}))}
            return replace(
                report, per_power=(*head, gained), astab_value=None
            )

        monkeypatch.setattr(cli, "empirical_astab", broken)
        code, out, _ = run(
            capsys, "stability", "--t", "2", "--smax", "4", graph_file(STAR4)
        )
        assert code == 3
        assert "persistence: OK" in out.splitlines()
        assert out.splitlines()[-1] == (
            "MISMATCH at t=2: empirical tail starts at s=None, formula says s=3"
        )
        # gap decides the same tail by the same rule.
        monkeypatch.setattr(hypercovers, "empirical_astab", broken)
        code, out, _ = run(capsys, "gap", "--m", "1")
        assert code == 3
        assert out.splitlines()[-1] == (
            "MISMATCH at m=1: oracle tail starts at s=None, formula says s=2"
        )

    def test_witness_fails(self, capsys, monkeypatch):
        build = cli.build_star_witness
        monkeypatch.setattr(
            cli,
            "build_star_witness",
            lambda *a: replace(build(*a), annihilator_divides=False),
        )
        code, out, _ = run(capsys, "witness", "--n", "3", "--t", "2", "--s", "2")
        assert code == 3
        assert out.splitlines()[-1] == "MISMATCH: witness fails at n=3 t=2 s=2"

    def test_witness_colon_fails(self, capsys, monkeypatch):
        build = cli.build_star_witness
        monkeypatch.setattr(
            cli,
            "build_star_witness",
            lambda *a: replace(build(*a), colon_equals_prime=False),
        )
        code, out, _ = run(capsys, "witness", "--n", "3", "--t", "2", "--s", "2")
        assert code == 3
        assert out.splitlines()[2:] == [
            "colon(J^2, T) = <z, x1..x3>: FAIL",
            "divisibility bound T | z^e*(x1..x3)^(s-e-1): FAIL",
            "MISMATCH: witness fails at n=3 t=2 s=2",
        ]

    def test_gap_violated(self, capsys, monkeypatch):
        verify = cli.verify_gap

        def broken(m, s_max=None):
            report = verify(m, s_max=s_max)
            return replace(
                report,
                oracle_astab=report.astab + 1,
                gap_holds=False,
                gap_is_equality=False,
                baseline_holds=False,
                ideal_matches_star=False,
            )

        monkeypatch.setattr(cli, "verify_gap", broken)
        code, out, _ = run(capsys, "gap", "--m", "2")
        assert code == 3
        assert out.splitlines() == [
            "H_2: chi=2, astab=3 (oracle tail: 4)",
            "gap bound chi-1+m = 3 <= astab: VIOLATED at m=2",
            "baseline chi-1 <= astab: VIOLATED at m=2",
            "MISMATCH at m=2: cover ideal differs from the star closed form",
            "MISMATCH at m=2: oracle tail starts at s=4, formula says s=3",
        ]

    def test_gap_missing_tail_past_astab(self, capsys, monkeypatch):
        # With the default s_max = astab + 1 the formula says the tail has
        # started, so finding none refutes it rather than being undetermined.
        verify = cli.verify_gap

        def broken(m, s_max=None):
            return replace(verify(m, s_max=s_max), oracle_astab=None)

        monkeypatch.setattr(cli, "verify_gap", broken)
        code, out, _ = run(capsys, "gap", "--m", "2")
        assert code == 3
        assert out.splitlines() == [
            "H_2: chi=2, astab=3 (oracle tail: None)",
            "gap bound chi-1+m = 3 <= astab: HOLDS (equality)",
            "baseline chi-1 <= astab: HOLDS",
            "MISMATCH at m=2: oracle tail starts at s=None, formula says s=3",
        ]
