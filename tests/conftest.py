"""Shared acceptance-report plumbing: criterion tests register a single
pass/fail line; the terminal summary replays them all at the end of the run
so the gate's outcome is readable in one block.  Also loads the hypothesis
settings profile of the property tests."""

import pytest
from hypothesis import settings

# property tests are reproducible (derandomized: the same examples on every
# run, and no example database carried between runs) and bounded in time
# (no per-example deadline, few examples)
settings.register_profile("xvadg", derandomize=True, database=None,
                          deadline=None, max_examples=10)
settings.load_profile("xvadg")

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def criterion_report():
    def _record(number: int, ok: bool, text: str) -> bool:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {text}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        return ok
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
