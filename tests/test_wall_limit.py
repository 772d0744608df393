"""The per-test wall limit of ``conftest``: a short limit stops the block it
bounds, also inside a Hypothesis test, and leaves no timer or handler
behind."""

import signal
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st


def test_a_wall_limit_stops_the_block_and_restores_the_handler(wall_limit):
    outer = signal.getsignal(signal.SIGALRM)
    start = time.monotonic()
    with pytest.raises(BaseException) as caught:
        with wall_limit(0.05):
            time.sleep(5)
    assert time.monotonic() - start < 2
    assert str(caught.value) == "ran past its 0.05 s wall limit"
    assert signal.getsignal(signal.SIGALRM) is outer
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_hypothesis_does_not_catch_the_wall_limit_to_shrink(wall_limit):
    calls = []

    @settings(max_examples=1000, deadline=None, database=None)
    @given(st.integers())
    def slow(n):
        calls.append(n)
        time.sleep(0.01)

    with pytest.raises(BaseException) as caught:
        with wall_limit(0.2):
            slow()
    assert not isinstance(caught.value, Exception)
    assert len(calls) < 100


def test_an_alarm_in_hypothesis_code_is_let_pass_and_one_in_the_test_is_not(wall_limit):
    drawing = []

    @settings(max_examples=1, database=None)
    @given(st.integers().map(lambda n: drawing.append(sys._getframe(1)) or n))
    def draw(n):
        pass

    draw()
    with wall_limit(60):
        expire = signal.getsignal(signal.SIGALRM)
        assert expire(signal.SIGALRM, drawing[0]) is None
        with pytest.raises(BaseException) as caught:
            expire(signal.SIGALRM, sys._getframe())
    assert not isinstance(caught.value, Exception)
    assert str(caught.value) == "ran past its 60 s wall limit"


def test_a_block_stuck_in_hypothesis_code_is_still_stopped(wall_limit):
    drawing = []

    @settings(max_examples=1, database=None)
    @given(st.integers().map(lambda n: drawing.append(sys._getframe(1)) or n))
    def draw(n):
        pass

    draw()
    with wall_limit(60):
        expire = signal.getsignal(signal.SIGALRM)
        with pytest.raises(BaseException) as caught:
            for _ in range(10):
                expire(signal.SIGALRM, drawing[0])
    assert str(caught.value) == "ran past its 60 s wall limit"
