import os
import signal
import sys
import sysconfig
from contextlib import contextmanager
from pathlib import Path

import hypothesis
import pytest

# Test modules import the helpers beside them (oracles, strategies) by name.
sys.path.insert(0, str(Path(__file__).parent))

#: Seconds one test call may run.  The slowest test takes about 6 s; a fault
#: that leaves a leaf short of its target plays every plan to its deadline,
#: and Hypothesis then shrinks for minutes, so such a test fails here.
WALL_LIMIT_S = 60

#: Alarms that land in Hypothesis's own code and are let pass, per block.
HYPOTHESIS_PASSES = 2


_HYPOTHESIS = os.path.dirname(hypothesis.__file__) + os.sep
_STDLIB = sysconfig.get_paths()["stdlib"] + os.sep
_SITE_PACKAGES = sysconfig.get_paths()["purelib"] + os.sep


class WallLimitExceeded(BaseException):
    """Raised when a test call runs past its wall limit.  It is not an
    ``Exception``, so Hypothesis does not catch it to shrink."""


def _in_hypothesis(frame) -> bool:
    """Whether ``frame`` runs Hypothesis's own code, or standard-library
    code that Hypothesis called."""
    while frame is not None:
        path = frame.f_code.co_filename
        if path.startswith(_HYPOTHESIS):
            return True
        if not path.startswith(("<", _STDLIB)) or path.startswith(_SITE_PACKAGES):
            return False
        frame = frame.f_back
    return False


@contextmanager
def _wall_limit(seconds: float):
    """Raise :class:`WallLimitExceeded` in the block once ``seconds`` of wall
    time have passed, by ``SIGALRM``; then disarm the timer and restore the
    previous handler.  The alarm repeats every ``seconds`` until the block
    ends: one that lands in a ``gc`` callback, such as the one Hypothesis
    registers, is only reported as unraisable, and the next one stops the
    block.  One that lands in Hypothesis's own code, as it draws data, is
    let pass, since Hypothesis would report the draw it cut short as a
    flaky strategy, an ``Exception``; the next one lands in the test.  At
    most :data:`HYPOTHESIS_PASSES` are let pass, so a block stuck in
    Hypothesis's own code is stopped too."""
    passed = 0

    def expire(signum, frame):
        nonlocal passed
        if passed < HYPOTHESIS_PASSES and _in_hypothesis(frame):
            passed += 1
            return
        raise WallLimitExceeded(f"ran past its {seconds} s wall limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
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
