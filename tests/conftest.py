import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

# Test modules import the helpers beside them (oracles, strategies) by name.
sys.path.insert(0, str(Path(__file__).parent))

#: Seconds one test call may run.  The slowest test takes about 6 s; a fault
#: that leaves a leaf short of its target plays every plan to its deadline,
#: and Hypothesis then shrinks for minutes, so such a test fails here.
WALL_LIMIT_S = 60


class WallLimitExceeded(BaseException):
    """Raised when a test call runs past its wall limit.  It is not an
    ``Exception``, so Hypothesis does not catch it to shrink."""


@contextmanager
def _wall_limit(seconds: float):
    """Raise :class:`WallLimitExceeded` in the block once ``seconds`` of wall
    time have passed, by ``SIGALRM``; then disarm the timer and restore the
    previous handler."""

    def expire(signum, frame):
        raise WallLimitExceeded(f"ran past its {seconds} s wall limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_limit():
    """The wall-limit context manager that bounds every test call."""
    return _wall_limit


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    try:
        with _wall_limit(WALL_LIMIT_S):
            return (yield)
    except WallLimitExceeded as exc:
        raise pytest.fail.Exception(f"{item.nodeid} {exc}", pytrace=False) from None
