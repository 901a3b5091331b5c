"""Shared pytest hooks and fixtures.

Aggregates the end-to-end checks in test_acceptance.py (tests named
``test_criterion_<n>_*``) and prints one PASS/FAIL line per criterion
number after the regular summary.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict

import pytest

_CRITERION = re.compile(r"test_criterion_(\d+)")

_LABELS = {
    1: "module indexes",
    2: "reduced-matrix displays",
    3: "named examples",
    4: "form cycle",
    5: "power-basis rational check",
    6: "closed-form determinant identities",
    7: "Pell solver completeness",
    8: "decision-oracle equivalence",
    9: "automorphism group laws",
}

_reports: dict[int, list] = defaultdict(list)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if match is not None:
        _reports[int(match.group(1))].append(report)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _reports:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_reports):
        reports = _reports[number]
        failed = [r for r in reports if not r.passed]
        label = _LABELS.get(number, "criterion")
        if failed:
            names = ", ".join(sorted(r.nodeid.rpartition("::")[2] for r in failed))
            terminalreporter.write_line(
                f"ACCEPTANCE {number} {label}: FAIL "
                f"({len(reports) - len(failed)}/{len(reports)} checks pass; failing: {names})"
            )
        else:
            plural = "s" if len(reports) != 1 else ""
            terminalreporter.write_line(
                f"ACCEPTANCE {number} {label}: PASS ({len(reports)} check{plural})"
            )


@pytest.fixture
def unlimited_int_digits():
    """Lift the int-to-decimal digit limit (Python 3.11+) for one test only."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
