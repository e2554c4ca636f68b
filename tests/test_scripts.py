"""Smoke tests for the scripts under scripts/ and the README's examples."""

import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import LEADING_DASHES_END_OPTIONS

from covertool.graphs import path_graph, star_graph
from covertool.record import replace

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def survey_run():
    src = str(SCRIPTS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "survey.py"), "--max-n", "8"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_survey_runs(survey_run):
    assert survey_run.returncode == 0, survey_run.stderr
    lines = survey_run.stdout.splitlines()
    assert lines[-1] == "62 rows, 0 mismatches"
    assert len(lines[1:-1]) == 62


def test_star_table_runs(survey_run):
    assert survey_run.returncode == 0, survey_run.stderr
    rows = [line.split() for line in survey_run.stdout.splitlines()[1:-1]]
    stars = [row for row in rows if row[0].startswith("K1_")]
    # The catalogue's K_{1,3}..K_{1,6} and the added K_{1,2} and K_{1,7},
    # one row per t = 1..r.
    assert sorted({row[0] for row in stars}) == [f"K1_{r}" for r in range(2, 8)]
    assert len(stars) == sum(range(2, 8))
    for name, t, astab, tail, first, *_ in stars:
        # On stars the certified index, the observed tail start and the
        # first power carrying the maximal ideal all coincide, but at
        # t = 1 the maximal ideal never shows.
        if t == "1":
            assert (astab, tail, first) == ("1", "1", "None"), name
        else:
            assert astab == tail == first, name


def test_tree_survey_matches_on_small_trees():
    survey = load_script("survey")
    for g in (path_graph(4), star_graph(3)):
        for t in range(1, g.max_degree() + 1):
            (astab, tail, first, sizes), failed = survey.survey(g, t)
            assert failed == [], (g, t)
            assert len(sizes) == astab + 1 and tail <= astab, (g, t)


def survey_mismatches(monkeypatch, capsys, max_n, **patches):
    survey = load_script("survey")
    for name, value in patches.items():
        monkeypatch.setattr(survey, name, value(getattr(survey, name)))
    monkeypatch.setattr(sys, "argv", ["survey.py", "--max-n", str(max_n)])
    with pytest.raises(SystemExit) as info:
        survey.main()
    assert info.value.code == 3
    out = capsys.readouterr().out.splitlines()
    mismatches = [line for line in out if line.startswith("MISMATCH")]
    assert out[-1].endswith(f" rows, {len(mismatches)} mismatches")
    return mismatches


P4_EDGES = "P4 [x1-x2 x2-x3 x3-x4]"


def test_survey_tree_form_mismatch_exits_3(monkeypatch, capsys):
    out = survey_mismatches(
        monkeypatch, capsys, 4,
        trees=lambda _: lambda max_n: [("P4", path_graph(4))],
        predict_ass_tree_powers=lambda predict: (
            lambda *a: [frozenset() for _ in predict(*a)]
        ),
    )
    assert out == [
        f"MISMATCH {P4_EDGES} t={t} s=1: Ass differs from predict_ass_tree_powers"
        for t in (1, 2)
    ]


def test_survey_star_form_mismatch_exits_3(monkeypatch, capsys):
    def wrong(predict):
        def drop_maximal(n, t, s):
            report = predict(n, t, s)
            return replace(report, primes=frozenset(
                p for p in report.primes if len(p.support) <= n))
        return drop_maximal

    out = survey_mismatches(monkeypatch, capsys, 4, predict_ass_star=wrong)
    # The first power of each star cell whose Ass holds the maximal ideal.
    cells = [("K1_3 [z-x1 z-x2 z-x3]", 2, 2), ("K1_3 [z-x1 z-x2 z-x3]", 3, 1),
             ("K1_2 [z-x1 z-x2]", 2, 1)]
    assert out == [
        f"MISMATCH {tree} t={t} s={s}: Ass differs from predict_ass_star"
        for tree, t, s in cells
    ]


def test_survey_tail_mismatch_exits_3(monkeypatch, capsys):
    out = survey_mismatches(
        monkeypatch, capsys, 4, astab_tree=lambda _: lambda g, t: 1
    )
    assert out == ["MISMATCH K1_3 [z-x1 z-x2 z-x3] t=2 s=3: tail 2 against astab 1"]


def test_survey_persistence_mismatch_exits_3(monkeypatch, capsys):
    out = survey_mismatches(
        monkeypatch, capsys, 4,
        trees=lambda _: lambda max_n: [("P4", path_graph(4))],
        oracle_sweep=lambda sweep: lambda g, t: replace(
            sweep(g, t), persistence_ok=False, first_violation=1
        ),
    )
    assert out == [
        f"MISMATCH {P4_EDGES} t={t} s=1: Ass^s not within Ass^(s+1)"
        for t in (1, 2)
    ]


def test_cli_digest_on_a_subset(tmp_path, monkeypatch):
    cli_digest = load_script("cli_digest")
    assert len(cli_digest.witness_commands()) == 308
    groups = Counter(group for group, _ in cli_digest.command_list())
    assert sum(groups.values()) == 1809 and groups["usage"] == 19
    cli_digest.write_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    witness = [argv for argv in cli_digest.witness_commands() if argv[2] == "3"]
    argvs = (
        cli_digest.graph_commands("P4", path_graph(4))
        + cli_digest.hypergraph_commands("K3")
        + cli_digest.gap_commands()[:1]
        + witness
    )
    commands = [(argv[0], argv) for argv in argvs]
    commands += [("usage", argv) for argv in cli_digest.usage_commands()]
    first = cli_digest.digests(commands)
    assert list(first) == [
        "sweep", "ideal", "ass", "stability", "gap", "witness", "usage"
    ]
    # n = 3: t = 2 needs s >= 2 and t = 3 any s >= 1; the rest exit 1.
    assert first["witness"][:2] == (35, {0: 11, 1: 24})
    # Eight help texts, one missing file, the rest usage errors; an
    # argparse that ends options at a leading `--` runs `-- sweep` (exit 0).
    usage = {0: 9, 1: 1, 2: 9} if LEADING_DASHES_END_OPTIONS else {0: 8, 1: 1, 2: 10}
    assert first["usage"][:2] == (19, usage)
    assert cli_digest.digests(commands) == first
    code, out, err = cli_digest.run_command(witness[16])  # t=2 s=2
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "T = x1*x2*x3  (s0=2, e=0)"
    code, out, err = cli_digest.run_command([])
    assert (code, out) == (2, "")
    assert err.endswith("the following arguments are required: command\n")


# The lines `scripts/cli_digest.py` prints for its six subcommand
# groups, in `tests/cli_digest.expected`.  A change to any of their
# outputs must update that file on purpose.
CLI_DIGEST_EXPECTED = Path(__file__).resolve().parent / "cli_digest.expected"


# The `usage` line, the one a parser change risks, is pinned on Python
# 3.11 only: argparse words its help and errors differently across
# minor versions.
CLI_DIGEST_USAGE_3_11 = (
    "usage         19  exit0=8 exit1=1 exit2=10   "
    "273e41530963a3477d5ee1c162c566a2962f3bbca97a98940498621d560bd9d1"
)


def test_cli_digest_is_pinned(monkeypatch, capsys):
    # The script sets COLUMNS and changes directory; both are restored.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(os.getcwd())
    load_script("cli_digest").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == CLI_DIGEST_EXPECTED.read_text().splitlines()
    assert lines[-1].startswith("usage")
    if sys.version_info[:2] == (3, 11):
        assert lines[-1] == CLI_DIGEST_USAGE_3_11


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
