from contextlib import contextmanager

import pytest
from hypothesis import settings

# Every property test runs the same examples on every run (an explicit @seed
# still picks its own), with no per-example time limit and no example
# database carried from one run to the next.
settings.register_profile("fixed", derandomize=True, deadline=None, database=None)
settings.load_profile("fixed")


@pytest.fixture
def criterion(capfd):
    """Print one visible pass/fail line per acceptance criterion.

    Bypasses pytest's capture so the gate's outcome shows up in any run mode.
    """

    @contextmanager
    def _criterion(number: int, label: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {number}: FAIL - {label}")
            raise
        with capfd.disabled():
            print(f"criterion {number}: PASS - {label}")

    return _criterion
