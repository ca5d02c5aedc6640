"""Shared test helpers, and the acceptance suite's PASS/FAIL lines.

Stdout from tests is captured by pytest, so the acceptance tests also
record their one-line verdicts in a module-level list; the terminal-summary
hook replays them in a section where they are always visible.
"""

import sys
import tracemalloc

import pytest


@pytest.fixture
def traced_peak_mb():
    """A function giving the peak traced allocation, in MB, of ``call(*args)``."""
    def peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    return peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None and getattr(module, "ACCEPTANCE_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in module.ACCEPTANCE_LINES:
                terminalreporter.write_line(line)
            break
