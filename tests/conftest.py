"""Shared pytest plumbing: prints the acceptance verdict lines recorded
through `acceptance_log` in the terminal summary."""

from acceptance_log import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
