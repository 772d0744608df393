"""In-memory spans around calls into the package, and their self times.

A span records its name, start, end, parent span, op id and whether the
call raised.  Spans are recorded by wrapping the package's public functions
from the benchmark's side; the package itself is not instrumented.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import NamedTuple

_now = time.perf_counter_ns


class Span(NamedTuple):
    name: str
    start: int  # ns
    end: int  # ns
    parent: int | None  # index into the span list
    op: int | None
    error: bool


class Tracer:
    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, int] = {}

    def begin(self, name: str, start: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, _now() if start is None else start, 0, parent, self.op, False])
        index = len(self._spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, error: bool = False, end: int | None = None) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans must end in the reverse order they began")
        span = self._spans[index]
        span[2] = _now() if end is None else end
        span[5] = error

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, measure=None):
        """``fn`` inside a span; ``measure(result)`` is added to the count of
        the same name after the span ends."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, error=True)
                raise
            self.end(index)
            if measure is not None:
                self.count(name, measure(result))
            return result

        return traced

    @contextmanager
    def patch(self, owner, attribute: str, name: str, measure=None):
        """Route ``owner.attribute`` through a span for the duration."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(original, name, measure))
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    @property
    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self._spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


class Totals(NamedTuple):
    calls: int
    busy_ns: int
    self_ns: int
    errors: int


def summarize(spans: list[Span]) -> dict[str, Totals]:
    """Calls, busy time, self time and raised calls per span name."""
    own = self_times(spans)
    acc: dict[str, list[int]] = {}
    for span, self_ns in zip(spans, own):
        row = acc.setdefault(span.name, [0, 0, 0, 0])
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += self_ns
        row[3] += span.error
    return {name: Totals(*row) for name, row in acc.items()}
