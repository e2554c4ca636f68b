"""Smoke tests for the scripts under scripts/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from covertool.graphs import path_graph, star_graph

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_tree_survey_matches_on_small_trees():
    spec = importlib.util.spec_from_file_location(
        "tree_survey", SCRIPTS / "tree_survey.py"
    )
    tree_survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tree_survey)
    for name, g in (("P4", path_graph(4)), ("K1_3", star_graph(3))):
        rows = tree_survey.survey_tree(name, g)
        assert len(rows) == g.max_degree()
        assert all(row[4] == "MATCH" for row in rows), rows
