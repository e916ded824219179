"""Acceptance verdict lines, collected while the tests run.

The acceptance tests record one line per criterion; `conftest.py` prints
them in the terminal summary so the verdicts stay visible regardless of
capture mode. A module of its own, not `conftest.py`, so that the tests
import it by a name no other test directory's conftest shadows.
"""

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
