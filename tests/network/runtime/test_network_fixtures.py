"""Replay every pinned network-model fixture byte for byte.

See :mod:`tests.network.runtime.fixture_grid` for the grid and the
fixture format.
"""

import pytest

from .fixture_grid import CASES, fixture_path, render


@pytest.mark.parametrize(
    "protocol,model", CASES, ids=[f"{p}-{m}" for p, m in CASES]
)
def test_fixture_replays_exactly(protocol, model):
    expected = fixture_path(protocol, model).read_text()
    assert render(protocol, model) == expected

