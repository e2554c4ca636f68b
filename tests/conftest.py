"""Shared fixtures, the hypothesis profile and the acceptance summary hook.

Tests named test_criterion_NN in test_acceptance.py get one
"ACCEPTANCE NN: PASS/FAIL" line in the terminal summary, so the
verification status of each headline claim is readable at a glance
regardless of output capture settings.
"""

import re

import pytest
from hypothesis import settings

# Tier-1 draws the same hypothesis examples on every run; per-test
# max_examples settings still apply on top of this profile.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

_CRITERION = re.compile(r"test_criterion_0*(\d+)")
_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if match and "test_acceptance" in report.nodeid:
        _acceptance_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[number]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {verdict}")


@pytest.fixture(scope="session")
def tree_sweep():
    """Oracle Ass(J_t^s) for every acceptance tree, every valid t, and
    every s up to the certified stability index plus one.

    Computed once; the closed-form and the stability criteria both read
    from it so the expensive powers are shared.
    """
    from covertool.associated import oracle_sweep
    from covertool.catalog import acceptance_trees

    return {
        (name, t): (g, oracle_sweep(g, t).per_power)
        for name, g in acceptance_trees()
        for t in range(1, g.max_degree() + 1)
    }
