"""Acceptance battery: every criterion at its pinned tolerance.

Each test runs one criterion through the runner that ``peerpred suite``
uses and prints its pass/fail line.
"""

import pytest

from peerpred import acceptance


@pytest.mark.parametrize(
    "number",
    range(1, len(acceptance.CRITERIA) + 1),
    ids=[check.__name__.replace("criterion_", "") for _, check in acceptance.CRITERIA],
)
def test_criterion(number):
    result = acceptance.run(number)
    print(result.line())
    assert result.passed, result.line()
