"""Span bookkeeping and self-time arithmetic."""

import types

import pytest
from spans import Span, Tracer, self_times, summarize


def test_self_time_subtracts_children():
    spans = [
        Span("op", 0, 100, None, 0, False),
        Span("a", 10, 30, 0, 0, False),
        Span("b", 40, 90, 0, 0, False),
        Span("c", 50, 60, 2, 0, False),
    ]
    assert self_times(spans) == [100 - 20 - 50, 20, 50 - 10, 10]


def test_overlapping_children_count_once_and_are_clipped():
    spans = [
        Span("op", 0, 100, None, 0, False),
        Span("a", 10, 50, 0, 0, False),
        Span("b", 30, 70, 0, 0, False),
        Span("c", 90, 120, 0, 0, False),
    ]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_summary_totals_per_name():
    spans = [
        Span("op", 0, 100, None, 0, False),
        Span("a", 10, 30, 0, 0, False),
        Span("a", 40, 50, 0, 0, True),
    ]
    totals = summarize(spans)
    assert totals["a"].calls == 2
    assert totals["a"].busy_ns == 30
    assert totals["a"].errors == 1
    assert totals["op"].self_ns == 70


def test_wrap_nests_counts_and_marks_errors():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: [x] * x, "inner", len)

    def boom():
        raise ValueError("refused")

    outer = tracer.wrap(lambda: inner(3), "outer")
    tracer.op = 4
    outer()
    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    spans = tracer.spans
    assert [(s.name, s.parent, s.op, s.error) for s in spans] == [
        ("outer", None, 4, False), ("inner", 0, 4, False), ("boom", None, 4, True)]
    assert tracer.counts == {"inner": 3}
    assert all(s.end >= s.start for s in spans)


def test_patch_restores_the_original():
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    tracer = Tracer()
    with tracer.patch(module, "f", "f"):
        assert module.f is not original
        assert module.f() == 1
    assert module.f is original
    assert [s.name for s in tracer.spans] == ["f"]
