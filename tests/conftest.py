"""Suite-wide pytest configuration: the opt-in ``campaign`` tier.

Test tiers (see docs/TESTING.md):

- **tier 1** — the default ``pytest`` run: every unmarked test.
- **tier 2** — ``slow``-marked smoke tests; included by default, can be
  deselected with ``-m "not slow"``.
- **tier 3** — ``campaign``-marked conformance campaigns (minutes of
  protocol executions); *skipped by default*, opted in with
  ``pytest --run-campaign`` (the CI nightly job does this).

It also provides the ``pure_python`` fixture, the one seam through
which tests reach the pure-Python arithmetic path on fields that do
have a vectorized substrate.
"""

import contextlib

import pytest

from repro.fields import vectorized


def _no_substrate(field):
    raise ValueError(f"no vectorized substrate for {field!r} (test seam)")


@contextlib.contextmanager
def _pure_python_path(active=True):
    if not active:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "vector_backend", _no_substrate)
        yield


@pytest.fixture
def pure_python():
    """Context-manager factory: inside ``with pure_python():`` every
    field looks substrate-less, so the ``ShamirScheme``s and
    ``IdealVSSSession``s *built* inside it take the pure-Python path
    (both resolve ``vector_backend`` once, at construction).  Outside
    the block, or inside ``with pure_python(False):``, the field alone
    decides, as in production."""
    return _pure_python_path


def pytest_addoption(parser):
    parser.addoption(
        "--run-campaign",
        action="store_true",
        default=False,
        help="run campaign-marked conformance tests (tier 3)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-campaign"):
        return
    skip = pytest.mark.skip(
        reason="conformance campaign: opt in with --run-campaign"
    )
    for item in items:
        if "campaign" in item.keywords:
            item.add_marker(skip)
