"""Smoke tests for the scripts under scripts/ and the README's examples."""

import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from covertool.associated import oracle_sweep
from covertool.graphs import path_graph, star_graph

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_star_table_runs():
    src = str(SCRIPTS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "star_table.py"), "--max-n", "4"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 6  # (n, t) with 2 <= t <= n <= 4
    for row in rows:
        # On stars the certified index, the observed tail start and the
        # first power carrying the maximal ideal all coincide.
        _, _, astab, tail, first = row.split()[:5]
        assert astab == tail == first, row


def test_star_table_mismatch_exits_3(monkeypatch, capsys):
    star_table = load_script("star_table")
    predict = star_table.predict_ass_star

    def wrong(n, t, s):
        # Drop the maximal ideal wherever the closed form has it.
        report = predict(n, t, s)
        return replace(report, primes=frozenset(p for p in report.primes
                                                if len(p.support) <= n))

    monkeypatch.setattr(star_table, "predict_ass_star", wrong)
    monkeypatch.setattr(sys, "argv", ["star_table.py", "--max-n", "3"])
    with pytest.raises(SystemExit) as info:
        star_table.main()
    assert info.value.code == 3
    out = capsys.readouterr().out.splitlines()
    # Exactly the cells whose Ass holds the maximal ideal.
    cells = [(2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 2, 3), (3, 3, 1), (3, 3, 2)]
    assert [line for line in out if line.startswith("MISMATCH")] == [
        f"MISMATCH n={n} t={t} s={s}: Ass differs from predict_ass_star"
        for n, t, s in cells
    ]


def test_star_table_tail_mismatch_exits_3(monkeypatch, capsys):
    star_table = load_script("star_table")
    monkeypatch.setattr(star_table, "astab_tree", lambda g, t: 1)
    monkeypatch.setattr(star_table, "oracle_sweep", lambda g, t: oracle_sweep(g, t, 3))
    monkeypatch.setattr(sys, "argv", ["star_table.py", "--max-n", "3"])
    with pytest.raises(SystemExit) as info:
        star_table.main()
    assert info.value.code == 3
    out = capsys.readouterr().out
    assert "MISMATCH n=3 t=2 s=3: tail 2 against astab 1" in out


def test_tree_survey_matches_on_small_trees():
    tree_survey = load_script("tree_survey")
    for name, g in (("P4", path_graph(4)), ("K1_3", star_graph(3))):
        rows = tree_survey.survey_tree(name, g)
        assert len(rows) == g.max_degree()
        assert all(row[4] == "MATCH" for row in rows), rows


def test_tree_survey_mismatch_exits_3(monkeypatch, capsys):
    tree_survey = load_script("tree_survey")
    predict = tree_survey.predict_ass_tree_powers
    monkeypatch.setattr(
        tree_survey,
        "predict_ass_tree_powers",
        lambda *a: [frozenset() for _ in predict(*a)],
    )
    monkeypatch.setattr(
        tree_survey, "acceptance_trees", lambda: [("P4", path_graph(4))]
    )
    monkeypatch.setattr(sys, "argv", ["tree_survey.py"])
    with pytest.raises(SystemExit) as info:
        tree_survey.main()
    assert info.value.code == 3
    assert capsys.readouterr().out.endswith("2 rows, 2 mismatches\n")


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
    # Eight help texts, one missing file, the rest usage errors.
    assert first["usage"][:2] == (19, {0: 8, 1: 1, 2: 10})
    assert cli_digest.digests(commands) == first
    code, out, err = cli_digest.run_command(witness[16])  # t=2 s=2
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "T = x1*x2*x3  (s0=2, e=0)"
    code, out, err = cli_digest.run_command([])
    assert (code, out) == (2, "")
    assert err.endswith("the following arguments are required: command\n")


# The lines `scripts/cli_digest.py` prints for its six subcommand
# groups.  A change to any of their outputs must update these on
# purpose.
CLI_DIGEST_LINES = [
    "sweep        202  exit0=156 exit1=46         "
    "590f6e9daad3a71bc03af08fd1c91ea4b189da3c35cd870c9ba09cea902ba04d",
    "ideal        164  exit0=126 exit1=38         "
    "94ddc8f589dd03f6cf294445f7efe7322026ae79d8777402e89d74cdf8dcbf79",
    "ass          620  exit0=452 exit1=168        "
    "0f7cb76aad503d6841e5d566484f977f75701077e45c3b6249fdee3e9de21faa",
    "stability    164  exit0=126 exit1=38         "
    "6d8730e379a9d795be347dc8af8f301ef004cea5842115fd6999ef25a43ccb62",
    "gap           24  exit0=24                   "
    "6ee6ccff01d31d23b5eddec91b97b58d8f95b37d511f24c62c3635cf345ff571",
    "witness      616  exit0=198 exit1=418        "
    "3d931b95a7bfc8648d8808c3b37e90dc90da67474fbb3c93ef4a0c7da05cc3b7",
]


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
    assert lines[:-1] == CLI_DIGEST_LINES
    assert lines[-1].startswith("usage")
    if sys.version_info[:2] == (3, 11):
        assert lines[-1] == CLI_DIGEST_USAGE_3_11


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
